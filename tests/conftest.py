"""Shared fixtures: shipped configs, shortened horizons, and the full sweeps.

The expensive session fixtures (two CLI cashier sweeps, serial and at
--jobs 2, and one in-process empowerment sweep) are computed once, together,
and shared by the acceptance tests; everything else runs on 7-day horizons to
stay fast. The three sweeps keep both cores of a two-core machine busy: the
empowerment sweep runs here while the serial cashier sweep runs in a child
process, and then the --jobs 2 sweep runs alone. Seeding is per cell, so a
parallel sweep gives the same bytes as a serial one.
"""

import dataclasses
import shutil
import subprocess
import sys
import threading
import time

import pytest

from retailsim.cli import resolve_config_path
from retailsim.config import Horizon, load_config
from retailsim.experiments import run_sweep


def triangular_mean(params):
    """Closed-form mean of a triangular distribution."""
    return (params.low + params.mode + params.high) / 3.0


def triangular_variance(params):
    """Closed-form variance of a triangular distribution."""
    a, m, b = params.low, params.mode, params.high
    return (a * a + m * m + b * b - a * m - a * b - m * b) / 18.0


def shorten(config, days=7, minutes=None):
    """Same department, fewer trading days."""
    day_minutes = minutes if minutes is not None else config.horizon.trading_day_minutes
    return dataclasses.replace(config, horizon=Horizon(day_minutes, days))


@pytest.fixture(scope="session")
def atv_config():
    return load_config(resolve_config_path("dept_atv.toml"))


@pytest.fixture(scope="session")
def ww_config():
    return load_config(resolve_config_path("dept_ww.toml"))


@pytest.fixture(scope="session")
def atv_week(atv_config):
    return shorten(atv_config)


@pytest.fixture(scope="session")
def ww_week(ww_config):
    return shorten(ww_config)


def cli_argv():
    """Invocation for the installed command line, console script preferred."""
    exe = shutil.which("retailsim")
    if exe:
        return [exe]
    return [sys.executable, "-m", "retailsim"]


# Twice criterion 01's bound: a sweep still running then is hung, and is killed.
SWEEP_TIMEOUT_S = 600


def start_cashier_sweep(out, jobs):
    """Start the full 200-replication CLI cashier sweep at base seed 1.

    Returns a function that waits for the sweep and gives its (CSV bytes,
    elapsed seconds, CSV path, stdout). A thread waits on the child, so the
    elapsed time ends when the sweep does, even while this process is busy.
    """
    cmd = cli_argv() + [
        "sweep",
        "--experiment", "cashiers",
        "--reps", "20",
        "--base-seed", "1",
        "--out", str(out),
        "--jobs", jobs,
    ]
    run = {}

    def wait():
        start = time.perf_counter()
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            try:
                run["stdout"], run["stderr"] = proc.communicate(timeout=SWEEP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                run["stdout"], run["stderr"] = proc.communicate()
        run["elapsed"] = time.perf_counter() - start
        run["returncode"] = proc.returncode

    waiter = threading.Thread(target=wait)
    waiter.start()

    def finish():
        waiter.join()
        assert run.get("returncode") == 0, f"sweep CLI failed: {run.get('stderr')}"
        return out.read_bytes(), run["elapsed"], out, run["stdout"]

    return finish


@pytest.fixture(scope="session")
def full_sweeps(tmp_path_factory, atv_config, ww_config):
    """The full cashier sweep via the CLI, twice, and the empowerment sweep.

    The serial cashier sweep runs in a child process while this process
    computes the empowerment sweep at jobs=1; then the cashier sweep runs
    again at --jobs 2, alone. Each CLI sweep is timed from its own start to
    its own end.
    """
    out_dir = tmp_path_factory.mktemp("cashier_sweep")
    serial = start_cashier_sweep(out_dir / "cashiers_first.csv", "1")
    configs = {atv_config.label: atv_config, ww_config.label: ww_config}
    empowerment = run_sweep("empowerment", configs, replications=20, base_seed=1, jobs=1)
    first = serial()
    second = start_cashier_sweep(out_dir / "cashiers_second.csv", "2")()
    return [first, second], empowerment


@pytest.fixture(scope="session")
def cashier_sweep(full_sweeps):
    """Per-run (CSV bytes, elapsed seconds, CSV path, stdout) of the two CLI
    cashier sweeps, serial first and then --jobs 2, both at base seed 1, so
    their outputs must match byte for byte."""
    return full_sweeps[0]


@pytest.fixture(scope="session")
def empowerment_rows(full_sweeps):
    """Full-horizon empowerment sweep rows, 20 replications per cell."""
    return full_sweeps[1]
