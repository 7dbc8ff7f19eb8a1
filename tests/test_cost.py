"""A noise-free cost gate: the exact calls and memory of one replication.

Wall time on a shared machine drifts by 10-30% over minutes, so no test times
anything. But the calls a replication makes under cProfile are the same in
every run, so a change that adds work to the event loop shows here as an
exact count: a change that adds calls on purpose updates the pins below and
says in CHANGES.md what the calls buy, and a speed change can state an exact
"calls -X%" beside its noisy wall-time pairs.

Each packaged department runs 3 days at seed 7. The config is built outside
the profile, and one run before it imports and builds what a process's first
replication alone pays for (a hash module, the RNG's refill table). The
test pins the total calls and the customers (about 53 calls a customer), each
handler's calls, and the calls of `RngStream.uniform`,
`EventCalendar.schedule` and `CustomerAgent.transition`.

Limits:
- Counts depend on the interpreter: CPython 3.12 inlines comprehensions, for
  one, so a comprehension is no longer a call. The pins hold on CPython 3.11,
  and the test is skipped on any other interpreter.
- Counts are not time. A slower C routine, or a worse cache pattern, does
  not show.
- The tracemalloc peak, about 435 kB, moves by up to 0.5% with what the
  process ran before, and numpy allocates the RNG's refill blocks, so it is
  pinned within 5%.
"""

import collections
import cProfile
import pstats
import sys
import tracemalloc

import pytest

from conftest import shorten
from retailsim.cli import resolve_config_path
from retailsim.config import load_config
from retailsim.department import DepartmentSim

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned for CPython 3.11; other interpreters count differently",
)

HANDLERS = ("_on_arrival", "_on_auth_end", "_on_browse_end", "_on_day_close", "_on_help_end",
            "_on_pay_end", "_on_refund_end", "_on_refund_service_end", "_on_renege")
COUNTED = HANDLERS + ("uniform", "schedule", "transition")
PINS = {
    "dept_ww": {
        "calls": 130314, "customers": 2472,
        "_on_arrival": 2472, "_on_auth_end": 125, "_on_browse_end": 2269, "_on_day_close": 3,
        "_on_help_end": 463, "_on_pay_end": 1263, "_on_refund_end": 235,
        "_on_refund_service_end": 0, "_on_renege": 100,
        "uniform": 16117, "schedule": 8173, "transition": 10122,
    },
    "dept_atv": {
        "calls": 62000, "customers": 1179,
        "_on_arrival": 1179, "_on_auth_end": 54, "_on_browse_end": 1078, "_on_day_close": 3,
        "_on_help_end": 362, "_on_pay_end": 567, "_on_refund_end": 117,
        "_on_refund_service_end": 0, "_on_renege": 36,
        "uniform": 7652, "schedule": 3717, "transition": 4757,
    },
}
PEAK_BYTES = {"dept_ww": 434_966, "dept_atv": 434_700}
PEAK_TOLERANCE = 0.05


@pytest.fixture(scope="module", params=sorted(PINS))
def department(request):
    config = shorten(load_config(resolve_config_path(request.param)), days=3)
    DepartmentSim(config, seed=7).run()
    return request.param, config


def test_a_replication_makes_the_pinned_calls(department):
    name, config = department
    profile = cProfile.Profile()
    profile.enable()
    metrics = DepartmentSim(config, seed=7).run()
    profile.disable()
    stats = pstats.Stats(profile)
    calls = collections.Counter()
    for (path, _, function), (_, count, *_) in stats.stats.items():
        if "retailsim" in path and function in COUNTED:
            calls[function] += count
    # Summed over the profiler's code objects: pstats keys its entries by file,
    # line and name, and keeps one of two generator expressions on one line,
    # which one depending on where the compiler allocated them.
    total = sum(entry.callcount for entry in profile.getstats())
    counts = {"calls": total, "customers": metrics.customers_entered}
    counts.update((function, calls[function]) for function in COUNTED)
    per_customer = total / metrics.customers_entered
    assert counts == PINS[name], f"{per_customer:.2f} calls a customer"


def test_a_replication_peaks_at_the_pinned_memory(department):
    name, config = department
    tracemalloc.start()
    try:
        DepartmentSim(config, seed=7).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak == pytest.approx(PEAK_BYTES[name], rel=PEAK_TOLERANCE)
