"""Customer statechart legality, satisfaction accounting, staff service contract."""

import dataclasses
import operator
import random

import pytest

from retailsim.agents import (
    _ALLOWED,
    CustomerAgent,
    CustomerState,
    IllegalTransition,
    SatisfactionEvent,
    SatisfactionWeights,
    StaffAgent,
    StaffRole,
    begin_service,
)
from retailsim.department import DepartmentSim
from retailsim.kernel import EventCalendar

from conftest import shorten
from test_department import scripted


def fresh():
    return CustomerAgent(0)


def allowed(state):
    """The states `state` may move to, decoded from the edge bitmask."""
    return {s for s in CustomerState if _ALLOWED[state] >> s & 1}


# -- transitions --------------------------------------------------------------


def test_purchase_walk_through_pay_queue():
    c = fresh()
    for state, trigger in (
        (CustomerState.BROWSING, "arrival"),
        (CustomerState.SEEKING_PAY, "browse_exit_buy"),
        (CustomerState.IN_PAY_QUEUE, "pay_enqueue"),
        (CustomerState.PAYING, "pay_start"),
        (CustomerState.LEAVING, "pay_done"),
    ):
        c.transition(state, trigger)
    assert c.state is CustomerState.LEAVING


def test_refund_goal_enters_refund_path_directly():
    c = fresh()
    c.transition(CustomerState.SEEKING_REFUND, "arrival")
    c.transition(CustomerState.REFUND_PROCESSING, "refund_start")
    c.transition(CustomerState.BROWSING, "refund_repurchase")
    assert c.state is CustomerState.BROWSING


def test_illegal_transition_names_state_and_trigger():
    c = fresh()
    with pytest.raises(IllegalTransition) as excinfo:
        c.transition(CustomerState.PAYING, "impatient")
    msg = str(excinfo.value)
    assert "ENTERING" in msg and "PAYING" in msg and "impatient" in msg
    assert c.state is CustomerState.ENTERING  # state untouched on failure


def test_leaving_is_absorbing():
    c = fresh()
    c.transition(CustomerState.BROWSING, "arrival")
    c.transition(CustomerState.LEAVING, "browse_exit_leave")
    for target in CustomerState:
        with pytest.raises(IllegalTransition):
            c.transition(target, "anything")


def test_every_state_reaches_leaving():
    # Walk the edge table: LEAVING must be reachable from every other state.
    reached = {CustomerState.LEAVING}
    frontier = [CustomerState.LEAVING]
    while frontier:
        target = frontier.pop()
        for state in CustomerState:
            if target in allowed(state) and state not in reached:
                reached.add(state)
                frontier.append(state)
    assert reached == set(CustomerState)


def test_fuzz_one_million_legal_steps_never_fault():
    rng = random.Random(2026)
    steps = 0
    c = fresh()
    while steps < 1_000_000:
        options = allowed(c.state)
        if not options:
            c = fresh()
            continue
        c.transition(rng.choice(sorted(options, key=lambda s: s.name)), "fuzz")
        steps += 1


# -- satisfaction -------------------------------------------------------------


def test_default_weights_match_documented_values():
    w = SatisfactionWeights.from_mapping({})
    assert w.weights[SatisfactionEvent.PURCHASE_COMPLETED] == 2
    assert w.weights[SatisfactionEvent.HELP_RECEIVED] == 1
    assert w.weights[SatisfactionEvent.REFUND_GRANTED] == 2
    assert w.weights[SatisfactionEvent.HELP_QUEUE_ABANDONED] == -2
    assert w.weights[SatisfactionEvent.PAY_QUEUE_ABANDONED] == -3
    assert w.weights[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == -4
    assert w.weights[SatisfactionEvent.LEFT_WITHOUT_PURCHASE] == 0


def test_weights_from_mapping_overrides_and_validates():
    w = SatisfactionWeights.from_mapping({"purchase_completed": 5})
    assert w.weights[SatisfactionEvent.PURCHASE_COMPLETED] == 5
    assert w.weights[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == -4  # untouched default
    with pytest.raises(ValueError, match="unknown satisfaction event"):
        SatisfactionWeights.from_mapping({"applause": 1})
    with pytest.raises(ValueError, match="integer"):
        SatisfactionWeights.from_mapping({"help_received": 1.5})
    with pytest.raises(ValueError, match="integer"):
        SatisfactionWeights.from_mapping({"help_received": True})


def test_satisfaction_event_arithmetic(atv_config):
    # The department applies each event's weight to the customer's index.
    assert atv_config.weights == SatisfactionWeights.from_mapping({})
    sim = DepartmentSim(atv_config)
    c = fresh()
    sim._apply(c, SatisfactionEvent.REFUND_QUEUE_ABANDONED)
    assert c.satisfaction == -4
    c.satisfaction = 3
    sim._apply(c, SatisfactionEvent.LEFT_WITHOUT_PURCHASE)
    assert c.satisfaction == 3
    c.satisfaction = -2
    sim._apply(c, SatisfactionEvent.PURCHASE_COMPLETED)
    assert c.satisfaction == 0


def test_ledger_tracks_counts_and_exact_total(atv_config):
    sim = DepartmentSim(atv_config)
    assert sim.ledger.total == 0
    c = fresh()
    kinds = [
        SatisfactionEvent.HELP_RECEIVED,
        SatisfactionEvent.PURCHASE_COMPLETED,
        SatisfactionEvent.HELP_RECEIVED,
        SatisfactionEvent.REFUND_QUEUE_ABANDONED,
    ]
    for kind in kinds:
        sim._apply(c, kind)
    ledger = sim.ledger
    assert ledger.counts[SatisfactionEvent.HELP_RECEIVED] == 2
    assert ledger.counts[SatisfactionEvent.PURCHASE_COMPLETED] == 1
    assert ledger.total == 1 + 2 + 1 - 4
    assert ledger.total == c.satisfaction


def test_purchase_without_abandonment_never_negative():
    # Non-abandon events all have non-negative default weights, so any event
    # multiset containing PurchaseCompleted and no *Abandoned sums >= 0.
    w = SatisfactionWeights.from_mapping({})
    abandons = {
        SatisfactionEvent.HELP_QUEUE_ABANDONED,
        SatisfactionEvent.PAY_QUEUE_ABANDONED,
        SatisfactionEvent.REFUND_QUEUE_ABANDONED,
    }
    assert all(w.weights[k] >= 0 for k in SatisfactionEvent if k not in abandons)
    assert w.weights[SatisfactionEvent.PURCHASE_COMPLETED] > 0


# -- spawning: the arrival handler's refund-or-browse branch -------------------


class ConstantRng:
    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


def arrival_moves(monkeypatch, sim):
    """Run `sim`; each customer's first move as (from, to, trigger, satisfaction)."""
    first = {}
    transition = CustomerAgent.transition

    def record(customer, new_state, trigger):
        if customer.id not in first:
            first[customer.id] = (customer.state, new_state, trigger, customer.satisfaction)
        transition(customer, new_state, trigger)

    monkeypatch.setattr(CustomerAgent, "transition", record)
    sim.run()
    monkeypatch.undo()
    return list(first.values())


def with_refund_goal(config, p):
    probabilities = dataclasses.replace(config.probabilities, refund_goal=p)
    return dataclasses.replace(config, probabilities=probabilities)


def test_spawn_goal_split_by_draw(monkeypatch, atv_config):
    # A draw below refund_goal seeks a refund; a draw at it goes browsing.
    for u, expected in ((0.39, CustomerState.SEEKING_REFUND), (0.40, CustomerState.BROWSING)):
        sim = DepartmentSim(scripted(refund_goal=0.4))
        sim.rng_decisions = ConstantRng(u)
        sim.inject_arrival(1.0)
        assert [move[1] for move in arrival_moves(monkeypatch, sim)] == [expected]
    # The shipped department at the extremes: nobody or everybody seeks a refund first.
    day = shorten(atv_config, days=1)
    never = arrival_moves(monkeypatch, DepartmentSim(with_refund_goal(day, 0.0), seed=3))
    always = arrival_moves(monkeypatch, DepartmentSim(with_refund_goal(day, 1.0), seed=3))
    assert never and always
    assert {move[1] for move in never} == {CustomerState.BROWSING}
    assert {move[1] for move in always} == {CustomerState.SEEKING_REFUND}


def test_spawn_refund_share_binomial(monkeypatch, ww_config):
    # About 56k arrivals: the binomial sd of the share at p = 0.1 is about 0.0013.
    moves = arrival_moves(monkeypatch, DepartmentSim(ww_config, seed=5))
    assert len(moves) > 50_000
    refunds = sum(move[1] is CustomerState.SEEKING_REFUND for move in moves)
    assert abs(refunds / len(moves) - 0.1) < 0.005


def test_spawn_starts_clean(monkeypatch, atv_week):
    moves = arrival_moves(monkeypatch, DepartmentSim(atv_week, seed=9, strict=True))
    assert moves
    assert {(move[0], move[2], move[3]) for move in moves} == {
        (CustomerState.ENTERING, "arrival", 0)
    }


# -- staff service contract ----------------------------------------------------


def test_begin_service_schedules_completion_and_accrues_busy_time():
    cal = EventCalendar()
    staff = StaffAgent(0, StaffRole.CASHIER)
    customer = fresh()
    fired = []

    def on_pay_end(target):
        fired.append((cal.now, target))
        staff.finish(cal.now)

    begin_service(staff, customer, 4.0, cal, on_pay_end)
    assert staff.busy and customer.serving_staff is staff
    assert customer.pending is not None
    cal.run_until(10.0, operator.call)
    assert fired == [(4.0, customer)]
    assert customer.pending is None
    assert staff.busy_minutes == 4.0
    assert not staff.busy


def test_begin_service_on_busy_staff_faults():
    cal = EventCalendar()
    staff = StaffAgent(0, StaffRole.NORMAL_SELLER)

    def on_help_end(target):
        pass

    begin_service(staff, fresh(), 2.0, cal, on_help_end)
    with pytest.raises(RuntimeError, match="not idle"):
        begin_service(staff, fresh(), 2.0, cal, on_help_end)


def test_staff_saturated_all_day():
    staff = StaffAgent(1, StaffRole.CASHIER)
    staff.begin(0.0)
    staff.finish(600.0)
    assert staff.busy_minutes == 600.0


def test_finish_when_idle_faults():
    staff = StaffAgent(2, StaffRole.SECTION_MANAGER)
    with pytest.raises(RuntimeError, match="not busy"):
        staff.finish(5.0)
