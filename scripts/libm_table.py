#!/usr/bin/env python3
"""Write the table of C-library results that tests/test_libm.py checks.

Every sweep byte rests on the C library's log1p: `sample_interarrival` turns
an arrival-stream draw u into a gap through -log1p(-u). Every Tukey p-value
rests on its exp, which `stats._ndtr` calls once per element of a tail. On
glibc 2.36 log1p misses the correctly rounded result on about 7% of stream
draws and exp on under 0.1% of the analysis's arguments, so a C library that
rounds those arguments differently moves the output.

The table holds the bits of `math.log1p(-u)` for 1,000 draws u of
`RngStream(0, "arrivals")` whose result is correctly rounded and 1,000 whose
result is not, taken in draw order, and of `math.exp` at 500 such arguments
of each kind that `_ndtr` receives in Tukey tails at k = 5 and df = 190 (the
cashier sweep's design). mpmath at 256 bits decides which results are
correctly rounded. Each line reads

    function  argument  result  rounded|misrounded  error-in-ulps

with the argument and result as `float.hex` text.

Usage: PYTHONPATH=src python3 scripts/libm_table.py [OUT]
(OUT defaults to tests/libm_table.txt.)
"""

import math
import pathlib
import sys

import mpmath

from retailsim import stats
from retailsim.kernel import RngStream

LOG1P_QUOTA = 1000  # of each kind
EXP_QUOTA = 500
DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "libm_table.txt"

mpmath.mp.prec = 256


def classify(name, x):
    """(result, rounded, error in ulps) of math.<name>(x) against mpmath."""
    got = getattr(math, name)(x)
    exact = getattr(mpmath, name)(mpmath.mpf(x))
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
    """The arguments `_ndtr` passes math.exp, in call order, each once."""
    seen = set()
    real_exp = math.exp
    for step in range(1, 200):
        calls = []
        math.exp = lambda x: calls.append(x) or real_exp(x)
        try:
            stats.studentized_range_upper_tail(0.5 * step, 5, 190)
        finally:
            math.exp = real_exp
        for x in calls:
            if x not in seen:
                seen.add(x)
                yield x


def main(out):
    rows = [("log1p", *row) for row in pick("log1p", arrival_arguments(), LOG1P_QUOTA)]
    rows += [("exp", *row) for row in pick("exp", ndtr_exp_arguments(), EXP_QUOTA)]
    lines = [
        "# Written by scripts/libm_table.py; checked by tests/test_libm.py.",
        "# function argument result rounded|misrounded error-in-ulps",
    ]
    for name, x, got, rounded, ulps in rows:
        kind = "rounded" if rounded else "misrounded"
        lines.append(f"{name} {x.hex()} {got.hex()} {kind} {ulps:.3f}")
    pathlib.Path(out).write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else DEFAULT_OUT)
