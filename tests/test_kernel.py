"""Event calendar ordering, cancellation, fault wrapping, and RNG substreams."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retailsim.kernel import EventCalendar, RngStream, SimulationFault


def drain(cal, t_end):
    """Dispatch everything through t_end; returns (fire_time, kind) pairs."""
    log = []
    cal.run_until(t_end, lambda h: log.append((h.fire_time, h.kind)))
    return log


def test_zero_delay_event_fires_before_later_events():
    cal = EventCalendar()
    cal.schedule(1.0, "later")
    cal.schedule(0.0, "arrival")
    assert drain(cal, 10.0) == [(0.0, "arrival"), (1.0, "later")]


def test_schedule_in_past_rejected():
    cal = EventCalendar()
    cal.run_until(5.0, lambda h: None)
    with pytest.raises(SimulationFault, match="past"):
        cal.schedule(3.0, "late")


def test_simultaneous_events_dispatch_in_insertion_order():
    cal = EventCalendar()
    for tag in ("a", "b", "c"):
        cal.schedule(2.0, tag)
    assert [kind for _, kind in drain(cal, 5.0)] == ["a", "b", "c"]


def test_cancel_pending_then_twice_then_after_fire():
    cal = EventCalendar()
    h1 = cal.schedule(1.0, "x")
    h2 = cal.schedule(2.0, "y")
    assert cal.cancel(h1) is True
    assert cal.cancel(h1) is False  # idempotent
    log = drain(cal, 10.0)
    assert log == [(2.0, "y")]  # cancelled handle never fires
    assert cal.cancel(h2) is False  # already fired
    assert h1.cancelled and not h1.fired
    assert h2.fired and not h2.cancelled


def test_run_until_empty_calendar_returns_t_end():
    cal = EventCalendar()
    assert cal.run_until(100.0, lambda h: None) == 100.0
    assert cal.now == 100.0


def test_events_beyond_t_end_stay_pending():
    cal = EventCalendar()
    for t in (1.0, 2.0, 3.0):
        cal.schedule(t, "e")
    log = drain(cal, 2.0)
    assert [t for t, _ in log] == [1.0, 2.0]
    assert cal.now == 2.0
    assert [t for t, _ in drain(cal, 10.0)] == [3.0]


def test_run_until_into_past_rejected():
    cal = EventCalendar()
    cal.run_until(5.0, lambda h: None)
    with pytest.raises(SimulationFault, match="past"):
        cal.run_until(4.0, lambda h: None)


def test_clock_equals_event_time_during_dispatch():
    cal = EventCalendar()
    seen = []
    cal.schedule(3.5, "a")
    cal.schedule(7.25, "b")
    cal.run_until(50.0, lambda h: seen.append(cal.now))
    assert seen == [3.5, 7.25]
    assert cal.now == 50.0


def test_handler_may_schedule_zero_delay_followup():
    cal = EventCalendar()
    log = []

    def handler(h):
        log.append(h.kind)
        if h.kind == "first":
            cal.schedule(cal.now, "followup")

    cal.schedule(1.0, "first")
    cal.schedule(1.0, "peer")
    cal.run_until(2.0, handler)
    # The follow-up was inserted last, so it fires after the same-time peer.
    assert log == ["first", "peer", "followup"]


def test_dispatcher_fault_wrapped_with_clock_and_kind():
    cal = EventCalendar()
    cal.schedule(4.0, "boom")

    def handler(h):
        raise ValueError("broken handler")

    with pytest.raises(SimulationFault) as excinfo:
        cal.run_until(10.0, handler)
    msg = str(excinfo.value)
    assert "4.0" in msg and "boom" in msg
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_simulation_fault_passes_through_unwrapped():
    cal = EventCalendar()
    cal.schedule(1.0, "x")
    original = SimulationFault("model bug")

    def handler(h):
        raise original

    with pytest.raises(SimulationFault) as excinfo:
        cal.run_until(5.0, handler)
    assert excinfo.value is original


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60))
def test_dispatch_is_total_order_over_time_then_insertion(times):
    cal = EventCalendar()
    for i, t in enumerate(times):
        cal.schedule(t, i)
    log = drain(cal, 101.0)
    assert len(log) == len(times)
    assert log == sorted(log)  # kind is the insertion index, so this is (t, seq)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60))
def test_clock_never_decreases(times):
    cal = EventCalendar()
    for t in times:
        cal.schedule(t, "e")
    seen = []
    cal.run_until(200.0, lambda h: seen.append(cal.now))
    assert all(a <= b for a, b in zip(seen, seen[1:]))


@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40),
    st.data(),
)
def test_cancelling_k_of_n_leaves_n_minus_k_dispatches(times, data):
    cal = EventCalendar()
    handles = [cal.schedule(t, i) for i, t in enumerate(times)]
    to_cancel = data.draw(st.sets(st.sampled_from(range(len(handles)))))
    for i in to_cancel:
        assert cal.cancel(handles[i])
    log = drain(cal, 51.0)
    assert len(log) == len(handles) - len(to_cancel)
    assert {kind for _, kind in log} == set(range(len(handles))) - to_cancel


def test_identical_seed_gives_identical_trace():
    def simulate(seed):
        cal = EventCalendar()
        stream = RngStream(seed, "arrivals")
        trace = []

        def handler(h):
            trace.append((cal.now, h.kind))
            if cal.now < 40.0:
                cal.schedule(cal.now + 5.0 * stream.uniform(), h.kind + 1)

        cal.schedule(0.0, 0)
        cal.run_until(50.0, handler)
        return trace

    assert simulate(99) == simulate(99)
    assert simulate(99) != simulate(100)


# -- RNG substreams ---------------------------------------------------------


def test_same_seed_and_name_reproduce_draws():
    a = RngStream(7, "arrivals")
    b = RngStream(7, "arrivals")
    assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]


def test_distinct_names_give_distinct_sequences():
    a = RngStream(7, "arrivals")
    b = RngStream(7, "decisions")
    assert [a.uniform() for _ in range(1000)] != [b.uniform() for _ in range(1000)]


def test_consuming_one_stream_leaves_another_untouched():
    fresh = RngStream(3, "service")
    expected = [fresh.uniform() for _ in range(100)]

    other = RngStream(3, "patience")
    probe = RngStream(3, "service")
    got = []
    for _ in range(100):
        other.uniform()
        other.uniform()
        got.append(probe.uniform())
    assert got == expected


def test_uniform_draws_lie_in_unit_interval_with_uniform_mean():
    stream = RngStream(12345, "arrivals")
    n = 10**6
    total = 0.0
    lo, hi = 1.0, 0.0
    for _ in range(n):
        u = stream.uniform()
        total += u
        lo = min(lo, u)
        hi = max(hi, u)
    assert 0.0 <= lo and hi < 1.0
    assert 0.499 <= total / n <= 0.501


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_streams_reproducible_for_any_master_seed(seed):
    assert RngStream(seed, "x").uniform() == RngStream(seed, "x").uniform()
