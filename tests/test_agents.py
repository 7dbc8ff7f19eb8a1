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
    StaffAgent,
    StaffRole,
)
from retailsim.cli import resolve_config_path
from retailsim.config import ConfigError, SatisfactionWeights, load_config
from retailsim.department import DepartmentSim

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
    for state in (
        CustomerState.BROWSING,
        CustomerState.SEEKING_PAY,
        CustomerState.IN_PAY_QUEUE,
        CustomerState.PAYING,
        CustomerState.LEAVING,
    ):
        c.transition(state)
    assert c.state is CustomerState.LEAVING


def test_refund_goal_enters_refund_path_directly():
    c = fresh()
    c.transition(CustomerState.SEEKING_REFUND)
    c.transition(CustomerState.REFUND_PROCESSING)
    c.transition(CustomerState.BROWSING)
    assert c.state is CustomerState.BROWSING


def test_illegal_transition_names_both_states():
    # The event is named by the handler that runs it, in the kernel's fault message.
    c = fresh()
    with pytest.raises(IllegalTransition) as excinfo:
        c.transition(CustomerState.PAYING)
    msg = str(excinfo.value)
    assert "ENTERING" in msg and "PAYING" in msg
    assert msg == "customer 0: illegal transition ENTERING -> PAYING"
    assert c.state is CustomerState.ENTERING  # state untouched on failure


def test_leaving_is_absorbing():
    c = fresh()
    c.transition(CustomerState.BROWSING)
    c.transition(CustomerState.LEAVING)
    for target in CustomerState:
        with pytest.raises(IllegalTransition):
            c.transition(target)


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
        c.transition(rng.choice(sorted(options, key=lambda s: s.name)))
        steps += 1


# -- satisfaction -------------------------------------------------------------


def weights_config(tmp_path, section):
    """The shipped A&TV config with `section` as its whole [satisfaction_weights]."""
    with open(resolve_config_path("dept_atv"), encoding="utf-8") as fh:
        text = fh.read()
    head, rest = text.split("[satisfaction_weights]\n")
    path = tmp_path / "weights.toml"
    path.write_text(f"{head}[satisfaction_weights]\n{section}\n\n{rest[rest.index('['):]}")
    return load_config(path)


def test_default_weights_match_documented_values(tmp_path):
    # The record has one field per event, in event order, named in lower case.
    names = [f.name for f in dataclasses.fields(SatisfactionWeights)]
    assert names == [e.name.lower() for e in SatisfactionEvent]
    config = weights_config(tmp_path, "")
    assert config.satisfaction_weights == SatisfactionWeights()
    w = DepartmentSim(config).weights
    assert w == (2, 1, 2, -2, -3, -4, 0)  # a tuple indexed by event
    assert w[SatisfactionEvent.PURCHASE_COMPLETED] == 2
    assert w[SatisfactionEvent.HELP_RECEIVED] == 1
    assert w[SatisfactionEvent.REFUND_GRANTED] == 2
    assert w[SatisfactionEvent.HELP_QUEUE_ABANDONED] == -2
    assert w[SatisfactionEvent.PAY_QUEUE_ABANDONED] == -3
    assert w[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == -4
    assert w[SatisfactionEvent.LEFT_WITHOUT_PURCHASE] == 0


def test_weights_from_mapping_overrides_and_validates(tmp_path):
    w = DepartmentSim(weights_config(tmp_path, "purchase_completed = 5")).weights
    assert w[SatisfactionEvent.PURCHASE_COMPLETED] == 5
    assert w[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == -4  # untouched default
    # Each error names the file and the field.
    not_int = "weights.toml: satisfaction_weights.help_received must be an integer, got"
    for section, message in [
        ("applause = 1", "weights.toml: unknown key 'satisfaction_weights.applause'"),
        ("help_received = 1.5", f"{not_int} 1.5"),
        ("help_received = true", f"{not_int} True"),
    ]:
        with pytest.raises(ConfigError) as excinfo:
            weights_config(tmp_path, section)
        assert str(excinfo.value) == message


def test_satisfaction_event_arithmetic(atv_config):
    # The department applies each event's weight to the customer's index.
    assert atv_config.satisfaction_weights == SatisfactionWeights()
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
    assert sim.ledger_sum == 0
    assert sim.event_counts == [0] * len(SatisfactionEvent)
    c = fresh()
    kinds = [
        SatisfactionEvent.HELP_RECEIVED,
        SatisfactionEvent.PURCHASE_COMPLETED,
        SatisfactionEvent.HELP_RECEIVED,
        SatisfactionEvent.REFUND_QUEUE_ABANDONED,
    ]
    for kind in kinds:
        sim._apply(c, kind)
    counts = sim.event_counts
    assert counts[SatisfactionEvent.HELP_RECEIVED] == 2
    assert counts[SatisfactionEvent.PURCHASE_COMPLETED] == 1
    assert sim.ledger_sum == 1 + 2 + 1 - 4
    assert sim.ledger_sum == c.satisfaction


def test_purchase_without_abandonment_never_negative(atv_config):
    # Non-abandon events all have non-negative default weights, so any event
    # multiset containing PurchaseCompleted and no *Abandoned sums >= 0.
    assert atv_config.satisfaction_weights == SatisfactionWeights()
    w = DepartmentSim(atv_config).weights
    abandons = {
        SatisfactionEvent.HELP_QUEUE_ABANDONED,
        SatisfactionEvent.PAY_QUEUE_ABANDONED,
        SatisfactionEvent.REFUND_QUEUE_ABANDONED,
    }
    assert all(w[k] >= 0 for k in SatisfactionEvent if k not in abandons)
    assert w[SatisfactionEvent.PURCHASE_COMPLETED] > 0


# -- spawning: the arrival handler's refund-or-browse branch -------------------


class ConstantRng:
    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


def arrival_moves(monkeypatch, sim):
    """Run `sim`; each customer's first move as (from, to, event, satisfaction).

    The event is the name of the traced handler that made the move, or None
    when `sim` keeps no trace.
    """
    first = {}
    transition = CustomerAgent.transition

    def record(customer, new_state):
        if customer.id not in first:
            event = None if sim.trace is None else sim.trace[-1][1]
            first[customer.id] = (customer.state, new_state, event, customer.satisfaction)
        transition(customer, new_state)

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
    moves = arrival_moves(monkeypatch, DepartmentSim(atv_week, seed=9, trace=[], strict=True))
    assert moves
    assert {(move[0], move[2], move[3]) for move in moves} == {
        (CustomerState.ENTERING, "arrival", 0)
    }


# -- staff service contract ----------------------------------------------------


def test_begin_service_schedules_completion_and_accrues_busy_time():
    sim = DepartmentSim(scripted())
    cal = sim.cal
    staff = sim.cashiers[0]
    customer = fresh()
    fired = []

    def on_pay_end(target):
        fired.append((cal.now, target))
        staff.finish(cal.now)

    def start(_):
        sim._begin_service(staff, customer, 4.0, on_pay_end)
        assert staff.busy_since == 1.5 and customer.serving_staff is staff
        assert customer.pending is not None

    cal.schedule(1.5, start)
    cal.run_until(10.0, operator.call)
    assert fired == [(5.5, customer)]
    assert customer.pending is None
    assert staff.busy_minutes == 4.0
    assert staff.busy_since is None


def test_begin_service_on_busy_staff_faults():
    sim = DepartmentSim(scripted(normal=1))
    staff = sim.normal_sellers[0]

    def on_help_end(target):
        pass

    sim._begin_service(staff, fresh(), 2.0, on_help_end)
    with pytest.raises(RuntimeError, match="not idle"):
        sim._begin_service(staff, fresh(), 2.0, on_help_end)


def test_staff_saturated_all_day():
    staff = StaffAgent(1, StaffRole.CASHIER)
    staff.begin(0.0)
    staff.finish(600.0)
    assert staff.busy_minutes == 600.0


def test_finish_when_idle_faults():
    staff = StaffAgent(2, StaffRole.SECTION_MANAGER)
    with pytest.raises(RuntimeError, match="not busy"):
        staff.finish(5.0)
