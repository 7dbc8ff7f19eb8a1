"""The C library under the output bytes: log1p for every sweep, exp, lgamma and log for p-values.

`sample_interarrival` computes -log1p(-u) for each arrival-stream draw u,
`stats._ndtr` calls exp once per tail element it evaluates, and the F and
studentized-range tails call lgamma, log and log1p, so a C library that
rounds any of these arguments differently moves the sweep or the analysis
digests. tests/libm_table.txt, written by scripts/libm_table.py, holds this
platform's bits at 2,000 stream draws and 1,000 of `_ndtr`'s arguments, half
of each where the result is not the correctly rounded one, and at every
argument the tails pass lgamma, log and log1p while analyzing the two
200-row results of 1-day sweeps at base seed 1. On a failure, this test
names the first argument whose result differs.
"""

import math
import pathlib

TABLE = pathlib.Path(__file__).resolve().parent / "libm_table.txt"
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
