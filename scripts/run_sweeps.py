#!/usr/bin/env python3
"""Run both staffing experiments end to end and analyze the results.

Writes one results CSV and one analysis CSV per experiment under --outdir,
and prints per-cell summary tables plus the ANOVA / Levene / Tukey report
for the transaction counts. Each step is a `retailsim sweep` or
`retailsim analyze` command, so the command line checks every option and a
bad one exits 2 before any sweep starts.
"""

import argparse
import pathlib
import sys

from retailsim import cli

EXPERIMENTS = ("cashiers", "empowerment")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", default="20", help="replications per cell")
    parser.add_argument("--base-seed", default="1")
    parser.add_argument("--jobs", default="1", help="worker processes")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for experiment in EXPERIMENTS:
        path = str(outdir / f"{experiment}.csv")
        sweep = [
            "sweep", "--experiment", experiment, "--reps", args.reps,
            "--base-seed", args.base_seed, "--jobs", args.jobs, "--out", path,
        ]
        for command in (sweep, ["analyze", "--results", path]):
            rc = cli.main(command)
            if rc != 0:
                return rc
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
