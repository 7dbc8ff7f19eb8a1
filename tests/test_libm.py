"""The C library under the output bytes: log1p for every sweep, exp for every p-value.

`sample_interarrival` computes -log1p(-u) for each arrival-stream draw u,
and `stats._ndtr` calls exp once per tail element, so a C library that
rounds any of these arguments differently moves the sweep or the analysis
digests. tests/libm_table.txt, written by scripts/libm_table.py, holds this
platform's bits at 2,000 stream draws and 1,000 of `_ndtr`'s arguments,
half of each where the result is not the correctly rounded one. On a
failure, this test names the first argument whose result differs.
"""

import math
import pathlib

TABLE = pathlib.Path(__file__).resolve().parent / "libm_table.txt"


def table_rows():
    with open(TABLE, encoding="ascii") as fh:
        return [line.split() for line in fh if not line.startswith("#")]


def test_table_covers_both_functions_half_misrounded():
    kinds = {}
    for name, _, _, kind, _ in table_rows():
        kinds.setdefault(name, []).append(kind)
    assert sorted(kinds) == ["exp", "log1p"]
    assert len(kinds["log1p"]) == 2000 and len(kinds["exp"]) == 1000
    for name, column in kinds.items():
        assert column.count("misrounded") * 2 == len(column), name


def test_libm_reproduces_the_table_bit_for_bit():
    for name, arg, want, kind, ulps in table_rows():
        x = float.fromhex(arg)
        got = getattr(math, name)(x).hex()
        assert got == want, (
            f"math.{name}({x!r}) = {got}, but the table holds {want} "
            f"({kind}, {ulps} ulp from the correctly rounded value): this C library "
            f"rounds {name} differently, so sweep or analysis digests may move"
        )
