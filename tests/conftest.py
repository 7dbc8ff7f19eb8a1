"""Shared fixtures: shipped configs, shortened horizons, and the full sweeps.

The expensive session fixtures (two CLI cashier sweeps, serial and at
--jobs 2, and one in-process empowerment sweep at jobs=2) are computed once
and shared by the acceptance tests; everything else runs on 7-day horizons to
stay fast. The parallel runs use both cores of a two-core machine; seeding is
per cell, so they give the same bytes as serial ones.
"""

import dataclasses
import shutil
import subprocess
import sys
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
    return [sys.executable, "-m", "retailsim.cli"]


@pytest.fixture(scope="session")
def cashier_sweep(tmp_path_factory):
    """The full 200-replication cashier sweep, run twice via the CLI.

    The first run is serial and the second runs at --jobs 2. Returns per-run
    (bytes, elapsed seconds, csv path); both runs use base seed 1 so their
    outputs must match byte for byte.
    """
    out_dir = tmp_path_factory.mktemp("cashier_sweep")
    runs = []
    for tag, jobs in (("first", "1"), ("second", "2")):
        out = out_dir / f"cashiers_{tag}.csv"
        cmd = cli_argv() + [
            "sweep",
            "--experiment", "cashiers",
            "--reps", "20",
            "--base-seed", "1",
            "--out", str(out),
            "--jobs", jobs,
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, f"sweep CLI failed: {proc.stderr}"
        runs.append((out.read_bytes(), elapsed, out))
    return runs


@pytest.fixture(scope="session")
def empowerment_rows(atv_config, ww_config):
    """Full-horizon empowerment sweep, 20 replications per cell, two workers."""
    configs = {atv_config.label: atv_config, ww_config.label: ww_config}
    return run_sweep("empowerment", configs, replications=20, base_seed=1, jobs=2)
