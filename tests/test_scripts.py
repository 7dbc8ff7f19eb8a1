"""Smoke tests: the scripts under scripts/ run against the package as it stands."""

import os
import pathlib
import subprocess
import sys

import retailsim

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    src = str(pathlib.Path(retailsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_refund_penalty_demo_runs():
    proc = run_script("refund_penalty_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "abandoned refunds:     1" in proc.stdout
    assert "overall satisfaction:  -4" in proc.stdout
