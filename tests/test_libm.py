"""The C library under the output bytes: log1p for every sweep, exp, lgamma and log for p-values.

`sample_interarrival` computes -log1p(-u) for each arrival-stream draw u,
`stats._ndtr` takes exp(-z*z) of every tail element it evaluates from the C
library (through numpy's complex exp, which calls cexp), and the F and
studentized-range tails call lgamma, log and log1p, so a C library that
rounds any of these arguments differently moves the sweep or the analysis
digests. tests/libm_table.txt, written by scripts/libm_table.py, holds this
platform's bits at 2,000 stream draws and 1,000 of `_ndtr`'s exp arguments,
half of each where the result is not the correctly rounded one, and at every
argument the tails pass lgamma, log and log1p while analyzing the two
200-row results of 1-day sweeps at base seed 1. On a failure, this test
names the first argument whose result differs. The exp that `_ndtr` uses
must give math.exp's bits at every table argument and across its whole
argument range: numpy's float exp, its own SIMD routine, would not.
"""

import importlib.util
import math
import pathlib
import sys

import numpy as np

from retailsim import stats

TABLE = pathlib.Path(__file__).resolve().parent / "libm_table.txt"
SCRIPT = TABLE.parent.parent / "scripts" / "libm_table.py"
KINDS = ("rounded", "misrounded")


def table_rows():
    with open(TABLE, encoding="ascii") as fh:
        return [line.split() for line in fh if not line.startswith("#")]


def test_table_covers_each_function_and_source():
    kinds = {}
    for name, _, _, kind, _, source in table_rows():
        assert kind in KINDS, (name, kind)
        kinds.setdefault((name, source), []).append(kind)
    assert sorted(kinds) == [
        ("exp", "tukey"), ("lgamma", "analyze"), ("log", "analyze"),
        ("log1p", "analyze"), ("log1p", "arrivals"),
    ]
    # The stream and tail samples are chosen half misrounded.
    for key, size in ((("log1p", "arrivals"), 2000), (("exp", "tukey"), 1000)):
        assert len(kinds[key]) == size, key
        assert kinds[key].count("misrounded") * 2 == size, key


def test_analyze_arguments_are_listed_once_each():
    seen = set()
    for name, arg, _, _, _, source in table_rows():
        if source == "analyze":
            assert (name, arg) not in seen, (name, arg)
            seen.add((name, arg))


def test_libm_reproduces_the_table_bit_for_bit():
    for name, arg, want, kind, ulps, source in table_rows():
        x = float.fromhex(arg)
        got = getattr(math, name)(x).hex()
        assert got == want, (
            f"math.{name}({x!r}) = {got}, but the table holds {want} "
            f"({kind}, {ulps} ulp from the correctly rounded value, {source} argument): "
            f"this C library rounds {name} differently, so sweep or analysis digests may move"
        )


def exp_rows(kind=None):
    return [float.fromhex(arg) for name, arg, _, k, _, _ in table_rows()
            if name == "exp" and kind in (None, k)]


def assert_ndtr_exp_is_math_exp(xs):
    got = stats._exp(np.array(xs))
    want = np.fromiter(map(math.exp, xs), float, count=len(xs))
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    if differ.size:
        x = xs[differ[0]]
        raise AssertionError(
            f"_ndtr's exp({x!r}) = {got[differ[0]].hex()}, math.exp gives "
            f"{math.exp(x).hex()} ({differ.size} of {len(xs)} arguments differ)"
        )


def test_ndtr_exp_has_math_exp_bits_at_every_table_argument():
    # Half of these are misrounded by the C library, the arguments where a
    # different exp is most likely to land on the other neighbour.
    assert_ndtr_exp_is_math_exp(exp_rows())


def test_ndtr_exp_has_math_exp_bits_over_its_argument_range():
    # _ndtr takes exp(-z*z) for z*z in [1, MAXLOG]; this covers [0.5, MAXLOG].
    # Below log(DBL_MIN) the results are subnormal.
    lo, hi = -stats._MAXLOG, -0.5
    ln_min = math.log(sys.float_info.min)
    edges = [lo, math.nextafter(lo, 0.0), math.nextafter(ln_min, lo), ln_min,
             math.nextafter(ln_min, 0.0), hi, math.nextafter(hi, lo)]
    xs = np.random.default_rng(20260).uniform(lo, hi, 1_000_000).tolist()
    assert_ndtr_exp_is_math_exp(edges + xs)


def test_exp_rows_are_ndtr_arguments_in_call_order():
    # The table's exp rows are the first 500 rounded and the first 500
    # misrounded arguments scripts/libm_table.py takes from _ndtr, each kind
    # in call order; any other argument before the 500th rounded row is
    # itself rounded, so it would be in the table.
    spec = importlib.util.spec_from_file_location("libm_table", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rounded, misrounded = exp_rows("rounded"), exp_rows("misrounded")
    wanted = set(misrounded)
    found, others = [], []
    for x in script.ndtr_exp_arguments():
        if x in wanted:
            found.append(x)
        elif len(others) < len(rounded):
            others.append(x)
        if len(found) == len(misrounded) and len(others) == len(rounded):
            break
    assert others == rounded
    assert found == misrounded
