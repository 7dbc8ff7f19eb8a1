"""Allow `python -m retailsim` as an alternative to the console script."""

import sys

from .cli import entry

if __name__ == "__main__":
    sys.exit(entry())
