"""Queue discipline, skill matching, idle-staff selection, refund path policy."""

import operator

import pytest

from retailsim.agents import (
    CustomerAgent,
    CustomerState,
    SatisfactionEvent,
    StaffAgent,
    StaffRole,
)
from retailsim.config import EmpowermentPolicy, TriangularParams
from retailsim.department import DepartmentSim, find_idle, strict, traced
from retailsim.kernel import RngStream
from retailsim.queueing import ServiceQueue, resolve_refund_path

from test_department import scripted


class ScriptedRng:
    """uniform() pops scripted values and counts the calls."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def uniform(self):
        self.calls += 1
        return self.values.pop(0)


def customer(cid, needs_expert=False):
    c = CustomerAgent(cid)
    c.needs_expert = needs_expert
    return c


# -- FIFO and skill matching ----------------------------------------------------


def queue_of(*customers):
    q = ServiceQueue(SatisfactionEvent.PAY_QUEUE_ABANDONED)
    q.entries.extend(customers)
    return q


def test_queue_carries_its_abandonment_event():
    q = queue_of()
    assert q.abandoned is SatisfactionEvent.PAY_QUEUE_ABANDONED
    assert not q.entries
    # The department keys each queue by the state its customers wait in.
    sim = DepartmentSim(scripted())
    for state, queue, abandoned in (
        (CustomerState.IN_HELP_QUEUE, sim.help_q, SatisfactionEvent.HELP_QUEUE_ABANDONED),
        (CustomerState.IN_PAY_QUEUE, sim.pay_q, SatisfactionEvent.PAY_QUEUE_ABANDONED),
        (CustomerState.IN_REFUND_QUEUE, sim.refund_q, SatisfactionEvent.REFUND_QUEUE_ABANDONED),
    ):
        assert sim._queues[state] is queue
        assert queue.abandoned is abandoned


@pytest.mark.parametrize("overrides, queued_at", [
    (dict(need_help=1.0, buy=0.0), 7.0),  # after a 2-minute browse, with no seller
    (dict(cashiers=0), 7.0),
    (dict(refund_goal=1.0, cashiers=0), 5.0),
], ids=["help", "pay", "refund"])
def test_every_queue_reneges_after_one_patience_draw(overrides, queued_at):
    trace = []
    sim = DepartmentSim(scripted(patience=8, **overrides), seed=0)
    sim.inject_arrival(5.0)
    sim.run(traced(trace, strict))
    assert (queued_at + 8.0, "renege", 0) in trace


def test_pop_head_is_fifo():
    customers = [customer(i) for i in range(3)]
    q = queue_of(*customers)
    assert [q.entries.popleft() for _ in range(3)] == customers
    assert not q.entries


def test_normal_seller_skips_expert_only_entries():
    expert_only = customer(0, needs_expert=True)
    plain = customer(1)
    q = queue_of(expert_only, plain)
    assert q.pop_first_servable(can_serve_expert=False) is plain
    assert list(q.entries) == [expert_only]  # head kept its position
    assert q.pop_first_servable(can_serve_expert=False) is None


def test_normal_seller_takes_the_oldest_servable_customer():
    first_plain, second_plain = customer(1), customer(2)
    q = queue_of(customer(0, needs_expert=True), first_plain, second_plain)
    assert q.pop_first_servable(can_serve_expert=False) is first_plain
    assert q.pop_first_servable(can_serve_expert=False) is second_plain


def test_expert_takes_the_oldest_entry_outright():
    first = customer(0, needs_expert=True)
    q = queue_of(first, customer(1))
    assert q.pop_first_servable(can_serve_expert=True) is first


def test_pop_first_servable_on_empty_queue():
    assert queue_of().pop_first_servable(can_serve_expert=True) is None
    assert queue_of().pop_first_servable(can_serve_expert=False) is None


def test_remove_present_and_absent():
    kept, reneged = customer(0), customer(1)
    q = queue_of(kept, reneged)
    q.remove(reneged)
    assert list(q.entries) == [kept]
    with pytest.raises(ValueError):
        q.remove(reneged)
    assert list(q.entries) == [kept]


def test_drain_empties_queue():
    # The day close clears every queue, sending each waiting customer home.
    sim = DepartmentSim(scripted(cashiers=0, managers=0, patience=1000))
    for at in (1.0, 2.0, 3.0):
        sim.inject_arrival(at)
    sim.cal.schedule(sim.day_end, sim._on_day_close)
    sim.cal.run_until(sim.day_end - 1.0, operator.call)
    assert [c.id for c in sim.pay_q.entries] == [0, 1, 2]
    sim.cal.run_until(sim.day_end, operator.call)
    assert not sim.pay_q.entries and not sim.live
    assert sim.event_counts[SatisfactionEvent.PAY_QUEUE_ABANDONED] == 0


def test_find_idle_prefers_lowest_id():
    staff = [StaffAgent(i, StaffRole.CASHIER) for i in range(3)]
    staff[0].begin(0.0)
    assert find_idle(staff) is staff[1]
    staff[1].begin(0.0)
    staff[2].begin(0.0)
    assert find_idle(staff) is None


# -- empowerment policy ----------------------------------------------------------


OVERHEAD = TriangularParams(1, 3, 6)


def test_policy_validates_probability_and_multiplier():
    EmpowermentPolicy(0.0)
    EmpowermentPolicy(1.0)
    with pytest.raises(ValueError, match="p_empowered"):
        EmpowermentPolicy(1.5)
    with pytest.raises(ValueError, match="multiplier"):
        EmpowermentPolicy(0.5, empowered_duration_multiplier=0.0)


def test_empowered_refund_scales_duration_and_skips_service_draw():
    policy = EmpowermentPolicy(1.0, empowered_duration_multiplier=2.0)
    decision = ScriptedRng([0.99])  # < 1.0, so still empowered
    service = ScriptedRng([])
    assert resolve_refund_path(policy, OVERHEAD, 5.0, decision, service) == (10.0, None)
    assert decision.calls == 1
    assert service.calls == 0  # no overhead draw on the autonomous branch


def test_referred_refund_draws_overhead_and_finds_idle_manager():
    policy = EmpowermentPolicy(0.0)
    managers = [StaffAgent(0, StaffRole.SECTION_MANAGER), StaffAgent(1, StaffRole.SECTION_MANAGER)]
    managers[0].begin(0.0)
    decision = ScriptedRng([0.4])
    service = ScriptedRng([0.7])
    authorization = TriangularParams(3.0, 3.0, 3.0)
    assert resolve_refund_path(policy, authorization, 5.0, decision, service) == (5.0, 3.0)
    assert service.calls == 1
    # The department hands the referral to the first idle manager.
    assert find_idle(managers) is managers[1]


def test_referred_refund_with_all_managers_busy():
    policy = EmpowermentPolicy(0.0)
    manager = StaffAgent(0, StaffRole.SECTION_MANAGER)
    manager.begin(0.0)
    authorization = TriangularParams(2.0, 2.0, 2.0)
    decision, service = ScriptedRng([0.0]), ScriptedRng([0.5])
    assert resolve_refund_path(policy, authorization, 4.0, decision, service) == (4.0, 2.0)
    assert find_idle([manager]) is None


def test_empowerment_split_binomial():
    policy = EmpowermentPolicy(0.5)
    decision = RngStream(17, "decisions")
    service = RngStream(17, "service")
    n = 100_000
    autonomous = sum(
        resolve_refund_path(policy, OVERHEAD, 1.0, decision, service)[1] is None for i in range(n)
    )
    assert abs(autonomous / n - 0.5) < 0.01
