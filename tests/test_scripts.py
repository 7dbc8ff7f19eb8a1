"""Smoke tests: the scripts under scripts/ run against the package as it stands."""

import os
import pathlib
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--jobs", "65", "--jobs must be between 1 and 64, got 65"),
        ("--reps", "0", "--reps must be >= 1, got 0"),
    ],
    ids=["jobs-65", "reps-0"],
)
def test_run_sweeps_rejects_bad_usage_before_any_sweep(tmp_path, flag, value, message):
    outdir = tmp_path / "out"
    proc = run_script("run_sweeps.py", flag, value, "--outdir", str(outdir))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "replications written" not in proc.stdout
    assert list(outdir.iterdir()) == []
