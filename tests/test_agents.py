"""Customer statechart legality, satisfaction accounting, staff service contract."""

import random

import pytest

from retailsim.agents import (
    _ALLOWED,
    CustomerAgent,
    CustomerGoal,
    CustomerState,
    IllegalTransition,
    SatisfactionEvent,
    SatisfactionWeights,
    StaffAgent,
    StaffRole,
    begin_service,
    spawn_customer,
)
from retailsim.department import DepartmentSim
from retailsim.kernel import EventCalendar, RngStream


def fresh(goal=CustomerGoal.PURCHASE):
    return CustomerAgent(0, goal, 0.0)


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
    c = fresh(CustomerGoal.REFUND)
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
    w = SatisfactionWeights.defaults()
    assert w[SatisfactionEvent.PURCHASE_COMPLETED] == 2
    assert w[SatisfactionEvent.HELP_RECEIVED] == 1
    assert w[SatisfactionEvent.REFUND_GRANTED] == 2
    assert w[SatisfactionEvent.HELP_QUEUE_ABANDONED] == -2
    assert w[SatisfactionEvent.PAY_QUEUE_ABANDONED] == -3
    assert w[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == -4
    assert w[SatisfactionEvent.LEFT_WITHOUT_PURCHASE] == 0


def test_weights_from_mapping_overrides_and_validates():
    w = SatisfactionWeights.from_mapping({"purchase_completed": 5})
    assert w[SatisfactionEvent.PURCHASE_COMPLETED] == 5
    assert w[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == -4  # untouched default
    with pytest.raises(ValueError, match="unknown satisfaction event"):
        SatisfactionWeights.from_mapping({"applause": 1})
    with pytest.raises(ValueError, match="integer"):
        SatisfactionWeights.from_mapping({"help_received": 1.5})
    with pytest.raises(ValueError, match="integer"):
        SatisfactionWeights.from_mapping({"help_received": True})


def test_satisfaction_event_arithmetic(atv_config):
    # The department applies each event's weight to the customer's index.
    assert atv_config.weights == SatisfactionWeights.defaults()
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
    w = SatisfactionWeights.defaults()
    abandons = {
        SatisfactionEvent.HELP_QUEUE_ABANDONED,
        SatisfactionEvent.PAY_QUEUE_ABANDONED,
        SatisfactionEvent.REFUND_QUEUE_ABANDONED,
    }
    assert all(w[k] >= 0 for k in SatisfactionEvent if k not in abandons)
    assert w[SatisfactionEvent.PURCHASE_COMPLETED] > 0


# -- spawning -----------------------------------------------------------------


def test_spawn_goal_split_by_draw():
    assert spawn_customer(1, 0.0, 0.0, 0.99).goal is CustomerGoal.PURCHASE
    assert spawn_customer(2, 0.0, 1.0, 0.99).goal is CustomerGoal.REFUND
    assert spawn_customer(3, 0.0, 0.4, 0.39).goal is CustomerGoal.REFUND
    assert spawn_customer(4, 0.0, 0.4, 0.40).goal is CustomerGoal.PURCHASE


def test_spawn_refund_share_binomial():
    stream = RngStream(5, "decisions")
    n = 100_000
    refunds = sum(
        spawn_customer(i, 0.0, 0.1, stream.uniform()).goal is CustomerGoal.REFUND
        for i in range(n)
    )
    assert abs(refunds / n - 0.1) < 0.003


def test_spawn_starts_clean():
    c = spawn_customer(9, 42.0, 0.0, 0.5)
    assert c.state is CustomerState.ENTERING
    assert c.satisfaction == 0
    assert c.entered_at == 42.0


# -- staff service contract ----------------------------------------------------


def test_begin_service_schedules_completion_and_accrues_busy_time():
    cal = EventCalendar()
    staff = StaffAgent(0, StaffRole.CASHIER)
    customer = fresh()
    begin_service(staff, customer, 4.0, cal, "pay_end")
    assert staff.busy and customer.serving_staff is staff
    assert customer.pending is not None
    fired = []

    def handler(kind, target):
        fired.append((cal.now, kind, target))
        staff.finish(cal.now)

    cal.run_until(10.0, handler)
    assert fired == [(4.0, "pay_end", customer)]
    assert customer.pending is None
    assert staff.busy_minutes == 4.0
    assert not staff.busy


def test_begin_service_on_busy_staff_faults():
    cal = EventCalendar()
    staff = StaffAgent(0, StaffRole.NORMAL_SELLER)
    begin_service(staff, fresh(), 2.0, cal, "help_end")
    with pytest.raises(RuntimeError, match="not idle"):
        begin_service(staff, fresh(), 2.0, cal, "help_end")


def test_staff_saturated_all_day():
    staff = StaffAgent(1, StaffRole.CASHIER)
    staff.begin(0.0)
    staff.finish(600.0)
    assert staff.busy_minutes == 600.0


def test_finish_when_idle_faults():
    staff = StaffAgent(2, StaffRole.SECTION_MANAGER)
    with pytest.raises(RuntimeError, match="not busy"):
        staff.finish(5.0)
