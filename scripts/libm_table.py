#!/usr/bin/env python3
"""Write the table of C-library results that tests/test_libm.py checks.

Every sweep byte rests on the C library's log1p: `sample_interarrival` turns
an arrival-stream draw u into a gap through -log1p(-u). Every Tukey p-value
rests on its exp, which `stats._ndtr` takes once per element it evaluates in
a tail (numpy's complex exp calls the C library's cexp, and cexp(x + 0i) is
exp(x)), and every ANOVA, Levene and Tukey p-value on its lgamma, log and
log1p, which `f_upper_tail` and `studentized_range_upper_tail` call. On glibc
2.36 log1p misses the correctly rounded result on about 7% of stream draws
and exp on under 0.1% of the analysis's arguments, so a C library that rounds
those arguments differently moves the output.

The table holds the bits of `math.log1p(-u)` for 1,000 draws u of
`RngStream(0, "arrivals")` whose result is correctly rounded and 1,000 whose
result is not, taken in draw order, and of `math.exp` at 500 such arguments
of each kind that `_ndtr` passes its exp (the tail elements' -z*z) in Tukey
tails at k = 5 and df = 190 (the cashier sweep's design), in call order. It
also holds `math.lgamma`, `math.log` and `math.log1p` at every distinct
argument they receive while `retailsim analyze` runs each metric of the two
200-row results of 1-day sweeps at base seed 1 (20 replications per cell,
the packaged departments): the two tail functions are their only callers
there. mpmath at 256 bits decides which results are correctly rounded; only
writing the table needs it. Each line reads

    function  argument  result  rounded|misrounded  error-in-ulps  source

with the argument and result as `float.hex` text, and source one of
`arrivals`, `tukey` and `analyze`.

Usage: PYTHONPATH=src python3 scripts/libm_table.py [OUT]
(OUT defaults to tests/libm_table.txt.)
"""

import contextlib
import dataclasses
import io
import math
import pathlib
import sys
import tempfile

from retailsim import cli, stats
from retailsim.config import load_config
from retailsim.experiments import run_sweep, save_results
from retailsim.kernel import RngStream
from retailsim.results import METRIC_FIELDS

LOG1P_QUOTA = 1000  # of each kind
EXP_QUOTA = 500
ANALYZE_FUNCTIONS = ("lgamma", "log", "log1p")
ANALYZE_INPUT = {"days": 1, "reps": 20, "base_seed": 1}  # 200 rows per experiment
MPMATH_NAMES = {"lgamma": "loggamma"}
DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "libm_table.txt"


def classify(name, x):
    """(result, rounded, error in ulps) of math.<name>(x) against mpmath at 256 bits."""
    import mpmath  # only classifying needs it; the argument sources do not
    mpmath.mp.prec = 256
    got = getattr(math, name)(x)
    exact = getattr(mpmath, MPMATH_NAMES.get(name, name))(mpmath.mpf(x))
    nearest = float(exact)  # mpmath rounds to nearest
    ulps = float(abs(mpmath.mpf(got) - exact) / math.ulp(nearest))
    return got, got == nearest, ulps


def pick(name, args, quota):
    """The first `quota` rounded and `quota` misrounded arguments, in order."""
    kept = {True: [], False: []}
    for x in args:
        got, rounded, ulps = classify(name, x)
        if len(kept[rounded]) < quota:
            kept[rounded].append((x, got, rounded, ulps))
        if all(len(rows) == quota for rows in kept.values()):
            return kept[True] + kept[False]
    raise SystemExit(f"{name}: arguments ran out before {quota} of each kind")


def arrival_arguments():
    stream = RngStream(0, "arrivals")
    while True:
        yield -stream.uniform()


def ndtr_exp_arguments():
    """The arguments `_ndtr` passes its exp (the tail elements' -z*z), in call order, each once.

    The normal-axis nodes are recomputed first, so the arguments of their own
    `_ndtr` call lead, as they do in a fresh process.
    """
    seen = set()
    real_exp = stats._exp
    stats._z_nodes.cache_clear()
    for step in range(1, 200):
        calls = []
        stats._exp = lambda x: calls.extend(x.tolist()) or real_exp(x)
        try:
            stats.studentized_range_upper_tail(0.5 * step, 5, 190)
        finally:
            stats._exp = real_exp
        for x in calls:
            if x not in seen:
                seen.add(x)
                yield x


def analysis_inputs(directory):
    """Write the results CSVs of both 1-day sweeps into `directory`; yield their paths."""
    configs = {}
    for name in cli.DEFAULT_CONFIG_FILES:
        config = load_config(cli.resolve_config_path(name))
        horizon = dataclasses.replace(config.horizon, days=ANALYZE_INPUT["days"])
        configs[config.label] = dataclasses.replace(config, horizon=horizon)
    for experiment in ("cashiers", "empowerment"):
        rows = run_sweep(experiment, configs, replications=ANALYZE_INPUT["reps"],
                         base_seed=ANALYZE_INPUT["base_seed"])
        path = directory / f"{experiment}.csv"
        save_results(rows, path)
        yield path


def analyze_arguments():
    """{name: the distinct arguments of math.<name> during analyze, in call order}."""
    calls = {name: {} for name in ANALYZE_FUNCTIONS}  # a dict keeps first-call order
    real = {name: getattr(math, name) for name in ANALYZE_FUNCTIONS}

    def recording(name):
        def call(x):
            calls[name].setdefault(float(x))  # an int df reaches the C library as a double
            return real[name](x)
        return call

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        inputs = list(analysis_inputs(directory))
        out = directory / "analysis.csv"
        stats._s_nodes.cache_clear()  # its lgamma and log calls are recorded too
        for name in ANALYZE_FUNCTIONS:
            setattr(math, name, recording(name))
        try:
            for path in inputs:
                for metric in METRIC_FIELDS:
                    argv = ["analyze", "--results", str(path), "--metric", metric,
                            "--out", str(out)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli.main(argv) != 0:
                            raise SystemExit(f"analyze {path.name} {metric} failed")
        finally:
            for name, fn in real.items():
                setattr(math, name, fn)
    return {name: list(args) for name, args in calls.items()}


def main(out):
    rows = [("log1p", *row, "arrivals")
            for row in pick("log1p", arrival_arguments(), LOG1P_QUOTA)]
    rows += [("exp", *row, "tukey") for row in pick("exp", ndtr_exp_arguments(), EXP_QUOTA)]
    for name, args in analyze_arguments().items():
        rows += [(name, x, *classify(name, x), "analyze") for x in args]
    lines = [
        "# Written by scripts/libm_table.py; checked by tests/test_libm.py.",
        "# function argument result rounded|misrounded error-in-ulps source",
    ]
    for name, x, got, rounded, ulps, source in rows:
        kind = "rounded" if rounded else "misrounded"
        lines.append(f"{name} {x.hex()} {got.hex()} {kind} {ulps:.3f} {source}")
    pathlib.Path(out).write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else DEFAULT_OUT)
