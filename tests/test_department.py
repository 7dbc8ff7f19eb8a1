"""Department simulation: determinism, scripted scenarios, and run invariants."""

import dataclasses
import gc
import hashlib
import math
import re
import tomllib
import weakref

import pytest

from retailsim.agents import SatisfactionEvent
from retailsim.cli import main
from retailsim.config import ArrivalProfile, StaffingPlan, build_config
from retailsim.department import DepartmentSim, run_replication, utilization
from retailsim.experiments import derive_cell_seed, run_sweep
from retailsim.kernel import SimulationFault
from retailsim.results import METRIC_FIELDS

from conftest import shorten

SCRIPT_TEMPLATE = """\
label = "SCRIPT"

[arrivals]
rate_per_hour = {rate}

[durations]
browse = {browse}
help = {help}
pay_service = {pay}
refund_service = {refund}
manager_authorization = {auth}
patience = {patience}

[probabilities]
need_help = {need_help}
buy_after_browse = {buy}
buy_after_help = 1.0
refund_goal = {refund_goal}
repurchase_after_refund = {repurchase}
needs_expert = 0.0

[staffing]
cashiers = {cashiers}
normal_sellers = {normal}
expert_sellers = {expert}
section_managers = {managers}

[empowerment]
p_empowered = {p_empowered}
empowered_duration_multiplier = {multiplier}

[horizon]
trading_day_minutes = {day_minutes}
days = {days}
"""


def scripted(**overrides):
    """Deterministic config: constant durations, no random arrivals by default."""
    params = dict(
        rate=0.0,
        browse=2,
        help=3,
        pay=1,
        refund=2,
        auth=3,
        patience=100,
        need_help=0.0,
        buy=1.0,
        refund_goal=0.0,
        repurchase=0.0,
        cashiers=1,
        normal=0,
        expert=0,
        managers=1,
        p_empowered=1.0,
        multiplier=1.0,
        day_minutes=600,
        days=1,
    )
    params.update(overrides)
    return build_config(tomllib.loads(SCRIPT_TEMPLATE.format(**params)), "scripted")


# -- determinism ----------------------------------------------------------------


def test_same_seed_same_metrics_and_trace(atv_week):
    t1, t2 = [], []
    m1 = DepartmentSim(atv_week, seed=7, trace=t1).run()
    m2 = DepartmentSim(atv_week, seed=7, trace=t2).run()
    assert m1 == m2
    assert t1 == t2
    assert len(t1) > 100


def test_different_seeds_diverge(atv_week):
    t1, t2 = [], []
    DepartmentSim(atv_week, seed=1, trace=t1).run()
    DepartmentSim(atv_week, seed=2, trace=t2).run()
    assert t1 != t2


def test_run_replication_matches_sim_object(atv_week):
    assert run_replication(atv_week, seed=11) == DepartmentSim(atv_week, seed=11).run()


# sha256 of repr(trace) for a strict, traced 3-day run of each shipped
# department at seed 11. Any change to the order of events, to their names
# or to the RNG draws moves them.
GOLDEN_TRACE_SHA256 = {
    "A&TV": "7494e6e966781a3384c56f4955418285f1b168c757e2c410fe2d4a3af7178822",
    "WW": "907f3f0e6e5d4c7440b5fdb5dd581170821b03677196824b1973a1b646a2b0d8",
}


def test_strict_three_day_traces_match_golden_digests(atv_config, ww_config):
    digests = {}
    for config in (atv_config, ww_config):
        trace = []
        DepartmentSim(shorten(config, days=3), seed=11, trace=trace, strict=True).run()
        digests[config.label] = hashlib.sha256(repr(trace).encode()).hexdigest()
    assert digests == GOLDEN_TRACE_SHA256


class JammedTill(DepartmentSim):
    def _on_pay_end(self, customer):
        raise ValueError("till jammed")


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "traced-strict"])
def test_handler_fault_names_the_handler_and_the_clock(observed):
    trace = [] if observed else None
    sim = JammedTill(scripted(pay=4), seed=0, trace=trace, strict=observed)
    sim.inject_arrival(1.0)  # browses for 2 minutes, then pays for 4
    with pytest.raises(SimulationFault) as excinfo:
        sim.run()
    msg = str(excinfo.value)
    assert "t=7.0" in msg and "'_on_pay_end'" in msg and "till jammed" in msg
    assert "0x" not in msg
    # A schedule into the past names its bound-method kind the same way.
    with pytest.raises(SimulationFault) as excinfo:
        sim.cal.schedule(1.0, sim._on_arrival)
    msg = str(excinfo.value)
    assert "at=1.0 < now=7.0" in msg and "'_on_arrival'" in msg
    assert "0x" not in msg


# -- strict runs ------------------------------------------------------------------


def test_week_passes_strict_invariant_checks(atv_week, ww_week):
    m_atv = DepartmentSim(atv_week, seed=3, strict=True).run()
    m_ww = DepartmentSim(ww_week, seed=3, strict=True).run()
    assert m_atv.transactions > 0
    assert m_ww.transactions > m_atv.transactions  # busier door, quicker sales


def test_strict_run_with_referred_refunds(atv_week):
    # Exercise the referred-refund path, every refund referred and a mixed
    # empowerment split; each referral holds its cashier and manager until done.
    for p in (0.0, 0.5):
        policy = dataclasses.replace(atv_week.empowerment, p_empowered=p)
        cfg = dataclasses.replace(atv_week, empowerment=policy)
        m = DepartmentSim(cfg, seed=5, strict=True).run()
        assert m.refunds_completed > 0


# Mutants, each breaking one rule that a strict run checks after every event.
class DoubleQueued(DepartmentSim):
    def _request(self, customer, staff, start, state):
        super()._request(customer, staff, start, state)
        if staff is None:  # queued, and in the refund queue as well
            self.refund_q.entries.append(customer)


class ServesWithoutDequeuing(DepartmentSim):
    def _staff_freed(self, staff):
        if self.pay_q.entries:
            self._start_pay(self.pay_q.entries[0], staff)


class UntimedQueue(DepartmentSim):
    def _request(self, customer, staff, start, state):
        super()._request(customer, staff, start, state)
        if staff is None:
            customer.pending = None  # the renege timer goes stale


class LostQueueEntry(DepartmentSim):
    def _request(self, customer, staff, start, state):
        super()._request(customer, staff, start, state)
        if staff is None:
            self._queues[state].entries.pop()  # the renege timer stays


class IdleWhenFreed(DepartmentSim):
    def _staff_freed(self, staff):
        pass


class ForgetsHeldCashier(DepartmentSim):
    def _settle(self, customer, now):
        customer.held_cashier = None
        super()._settle(customer, now)


# Two customers arrive together, so the second waits for the one member of
# staff the first holds; the last arrives one minute before the close, which
# ends its refund's authorization.
STRICT_FAULTS = {
    "two-queues": (DoubleQueued, {}, (1.0, 1.0), "customer 1 present in two queues"),
    "queued-in-service": (ServesWithoutDequeuing, {}, (1.0, 1.0),
                          "customer 1 is queued in IN_PAY_QUEUE but is in state PAYING"),
    "no-renege-timer": (UntimedQueue, {}, (1.0, 1.0),
                        "queued customer 1 lacks a live renege timer"),
    "stray-renege-timer": (LostQueueEntry, {}, (1.0, 1.0),
                           "customer 1 holds a renege timer outside any queue"),
    "idle-cashier": (IdleWhenFreed, {}, (1.0, 1.0),
                     "idle cashier while pay/refund customers queue"),
    "idle-expert": (IdleWhenFreed, dict(need_help=1.0, buy=0.0, expert=1), (1.0, 1.0),
                    "idle expert seller while help customers queue"),
    "idle-normal": (IdleWhenFreed, dict(need_help=1.0, buy=0.0, normal=1), (1.0, 1.0),
                    "idle normal seller while servable help entry queues"),
    "idle-manager": (IdleWhenFreed, dict(refund_goal=1.0, p_empowered=0.0, cashiers=2),
                     (1.0, 1.0), "idle manager while refunds await authorization"),
    "busy-at-horizon": (ForgetsHeldCashier, dict(refund_goal=1.0, p_empowered=0.0), (599.0,),
                        "StaffAgent(id=0, role=CASHIER, busy=True) still busy at horizon"),
}


@pytest.mark.parametrize("mutant, overrides, arrivals, message", STRICT_FAULTS.values(),
                         ids=STRICT_FAULTS)
def test_strict_run_names_the_rule_a_mutant_breaks(mutant, overrides, arrivals, message):
    def strict_run(cls):
        sim = cls(scripted(**overrides), strict=True)
        for at in arrivals:
            sim.inject_arrival(at)
        return sim.run()

    strict_run(DepartmentSim)  # the model itself keeps every rule here
    with pytest.raises(SimulationFault) as excinfo:
        strict_run(mutant)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("strict", [False, True], ids=["bare", "strict"])
def test_finished_replication_is_freed_without_the_cycle_collector(atv_week, ww_week, strict):
    # Refcounting alone must free a replication once run() returns: no
    # handler the model or its calendar still holds may point back at it.
    gc.disable()
    try:
        for config in (atv_week, ww_week):
            sim = DepartmentSim(config, seed=3, strict=strict)
            sim.run()
            alive = weakref.ref(sim)
            del sim
            assert alive() is None, config.label
    finally:
        gc.enable()


# -- degenerate staffing and arrivals ---------------------------------------------


def test_zero_arrivals_zero_everything():
    m = DepartmentSim(scripted(days=3), seed=9, strict=True).run()
    for field in METRIC_FIELDS:
        value = getattr(m, field)
        if field.endswith("utilization"):
            # Staffed roles idle all run; managers staffed too.
            expected = 0.0 if field != "seller_utilization" else None
            assert value == expected
        else:
            assert value == 0


def test_zero_cashiers_no_transactions(atv_week):
    no_cashiers = dataclasses.replace(atv_week, staffing=StaffingPlan(0, 5, 1, 1))
    m = DepartmentSim(no_cashiers, seed=0, strict=True).run()
    assert m.transactions == 0
    assert m.refunds_completed == 0
    assert m.cashier_utilization is None
    assert m.abandoned_pay > 0
    assert m.abandoned_refund > 0
    assert m.customers_entered == m.customers_left


def test_utilization_helper():
    assert utilization(300.0, 1, 600.0) == 0.5
    assert utilization(0.0, 0, 600.0) is None
    assert utilization(0.0, 2, 600.0) == 0.0


# -- scripted single-customer walks ------------------------------------------------


def test_purchase_walk_timing_and_satisfaction():
    sim = DepartmentSim(scripted(pay=4), seed=0, strict=True)
    sim.inject_arrival(0.0)
    m = sim.run()
    # Browse 0-2, pay 2-6: one transaction worth +2.
    assert m.transactions == 1
    assert m.satisfied_customers == 1
    assert m.overall_satisfaction == 2
    assert m.cashier_utilization == 4.0 / 600.0
    assert m.customers_entered == 1
    assert m.customers_left == 1


def test_utilization_spans_every_trading_day():
    sim = DepartmentSim(scripted(pay=4, days=3), seed=0, strict=True)
    sim.inject_arrival(0.0)
    # Four busy minutes over three 600-minute days.
    assert sim.run().cashier_utilization == 4.0 / 1800.0


def test_help_walk_uses_seller_and_stacks_satisfaction():
    sim = DepartmentSim(scripted(need_help=1.0, buy=0.0, normal=1), seed=0, strict=True)
    sim.inject_arrival(0.0)
    m = sim.run()
    # Browse 0-2, helped 2-5 (+1), pay 5-6 (+2).
    assert m.transactions == 1
    assert m.overall_satisfaction == 3
    assert m.seller_utilization == 3.0 / 600.0
    assert m.cashier_utilization == 1.0 / 600.0


def test_browse_exit_leaves_with_zero_satisfaction():
    sim = DepartmentSim(scripted(buy=0.0), seed=0, strict=True)
    sim.inject_arrival(0.0)
    m = sim.run()
    assert m.transactions == 0
    assert m.satisfied_customers == 0
    assert m.overall_satisfaction == 0
    assert sim.event_counts[SatisfactionEvent.LEFT_WITHOUT_PURCHASE] == 1


def test_pay_queue_renege_penalty():
    sim = DepartmentSim(scripted(cashiers=0, managers=0, patience=3), seed=0, strict=True)
    sim.inject_arrival(0.0)
    m = sim.run()
    # Queued at 2, patience runs out at 5.
    assert m.abandoned_pay == 1
    assert m.transactions == 0
    assert m.overall_satisfaction == -3
    assert m.satisfied_customers == 0
    assert m.refund_satisfaction == 0


# -- day-close sweep ---------------------------------------------------------------


def test_day_close_completes_in_progress_payment():
    sim = DepartmentSim(scripted(pay=10, day_minutes=5), seed=0, strict=True)
    sim.inject_arrival(0.0)
    m = sim.run()
    # Service started at 2 would end at 12; the 5-minute day closes it early
    # but the customer still walks out with the purchase.
    assert m.transactions == 1
    assert m.overall_satisfaction == 2
    assert m.cashier_utilization == 3.0 / 5.0
    assert m.customers_left == 1


def test_day_close_sends_queued_customers_home_unpenalized():
    sim = DepartmentSim(
        scripted(cashiers=0, managers=0, day_minutes=5), seed=0, strict=True
    )
    sim.inject_arrival(0.0)
    m = sim.run()
    # Still waiting when the store shuts: no sale, but not an abandonment.
    assert m.transactions == 0
    assert m.abandoned_pay == 0
    assert m.overall_satisfaction == 0
    assert m.customers_left == 1


def test_day_close_credits_help_in_progress():
    sim = DepartmentSim(
        scripted(need_help=1.0, buy=0.0, normal=1, help=10, day_minutes=5), seed=0, strict=True
    )
    sim.inject_arrival(0.0)
    m = sim.run()
    # Help started at 2 would end at 12; the close credits it and frees the seller.
    assert sim.event_counts[SatisfactionEvent.HELP_RECEIVED] == 1
    assert m.overall_satisfaction == 1
    assert m.transactions == 0
    assert sim.normal_sellers[0].busy_minutes == 3.0
    assert m.customers_left == 1


def test_day_close_grants_refund_waiting_for_a_manager():
    sim = DepartmentSim(
        scripted(refund_goal=1.0, p_empowered=0.0, cashiers=2, auth=10, day_minutes=5),
        seed=0,
        strict=True,
    )
    sim.inject_arrival(0.0)
    sim.inject_arrival(1.0)
    m = sim.run()
    # Customer 0 holds the only manager from 0; customer 1 parks cashier 1 from 1
    # waiting for authorization. The close grants both refunds.
    assert m.manager_authorizations == 2
    assert m.refunds_completed == 2
    assert m.refund_satisfaction == 4
    assert sim.cashiers[1].busy_minutes == 4.0
    assert all(s.busy_since is None for s in sim.cashiers + sim.managers)


def test_day_close_releases_both_staff_of_a_held_authorization():
    sim = refund_sim(p_empowered=0.0, auth=10, day_minutes=5)
    m = sim.run()
    # Authorization 0-10 with the cashier parked; the close at 5 ends both.
    assert m.refunds_completed == 1
    assert sim.cashiers[0].busy_minutes == 5.0
    assert sim.managers[0].busy_minutes == 5.0
    assert m.overall_satisfaction == 2


def test_day_close_sends_browsing_customer_home_without_ledger_event():
    sim = DepartmentSim(scripted(browse=10, day_minutes=5), seed=0, strict=True)
    sim.inject_arrival(0.0)
    m = sim.run()
    assert m.overall_satisfaction == 0
    assert m.satisfied_customers == 0
    assert sum(sim.event_counts) == 0
    assert sim.ledger_sum == 0
    assert m.customers_left == 1


# -- refund paths -------------------------------------------------------------------


def refund_sim(**overrides):
    sim = DepartmentSim(scripted(refund_goal=1.0, **overrides), seed=0, strict=True)
    sim.inject_arrival(0.0)
    return sim


def test_referred_refund_holds_cashier_through_authorization():
    sim = refund_sim(p_empowered=0.0)
    m = sim.run()
    # Authorization 0-3 with the cashier parked, then processing 3-5.
    assert m.refunds_completed == 1
    assert m.manager_authorizations == 1
    assert m.autonomous_refunds == 0
    assert sim.cashiers[0].busy_minutes == 5.0
    assert sim.managers[0].busy_minutes == 3.0
    assert m.refund_satisfaction == 2
    assert m.overall_satisfaction == 2


def test_empowered_refund_skips_manager_and_scales_duration():
    sim = refund_sim(p_empowered=1.0, multiplier=2.0)
    m = sim.run()
    assert m.refunds_completed == 1
    assert m.autonomous_refunds == 1
    assert m.manager_authorizations == 0
    assert sim.cashiers[0].busy_minutes == 4.0
    assert sim.managers[0].busy_minutes == 0.0


def test_held_refund_taken_from_the_queue_waits_for_a_manager_without_reneging():
    # Two cashiers, one manager, every refund referred.
    # #0 takes the manager 0-10; #1 parks cashier 1 from 0.5; #2 queues at 1
    # with 15 minutes' patience. At 10 the manager takes #1 (10-20); at 12
    # cashier 0 takes #2 from the queue, which then waits for the manager
    # past minute 16, when its patience ran out, and is authorized 20-30.
    trace = []
    sim = DepartmentSim(
        scripted(refund_goal=1.0, p_empowered=0.0, cashiers=2, auth=10,
                 patience=15),
        seed=0, trace=trace, strict=True,
    )
    for at in (0.0, 0.5, 1.0):
        sim.inject_arrival(at)
    m = sim.run()
    events = [(t, name, cid) for t, name, cid in trace if cid is not None]
    assert events == [
        (10.0, "auth_end", 0), (12.0, "refund_end", 0), (20.0, "auth_end", 1),
        (22.0, "refund_end", 1), (30.0, "auth_end", 2), (32.0, "refund_end", 2),
    ]
    assert m.abandoned_refund == 0
    assert m.refunds_completed == m.manager_authorizations == 3
    assert sim.managers[0].busy_minutes == 30.0
    assert sim.cashiers[0].busy_minutes == 12.0 + 20.0


def test_refund_then_repurchase_continues_shopping():
    sim = refund_sim(repurchase=1.0)
    m = sim.run()
    # Refund 0-2 (+2), browse again 2-4, buy 4-5 (+2).
    assert m.refunds_completed == 1
    assert m.transactions == 1
    assert m.overall_satisfaction == 4
    assert m.customers_left == 1


# -- ordering and flow balance --------------------------------------------------------


def test_pay_queue_is_first_come_first_served():
    trace = []
    sim = DepartmentSim(scripted(), seed=0, trace=trace, strict=True)
    for at in (0.0, 0.05, 0.1):
        sim.inject_arrival(at)
    sim.run()
    served = [cid for _, name, cid in trace if name == "pay_end"]
    assert served == [0, 1, 2]


def test_a_freed_cashier_serves_refunds_before_payments():
    # One cashier, 3-minute refunds, each followed by a browse and a purchase.
    # #0 refunds 0-3 and queues to pay at 5; #1 refunds 4-7; #2 queues for a
    # refund at 6. At 7 the cashier takes #2, who queued later than #0.
    trace = []
    sim = DepartmentSim(
        scripted(refund_goal=1.0, repurchase=1.0, refund=3), seed=0, trace=trace, strict=True
    )
    for at in (0.0, 4.0, 6.0):
        sim.inject_arrival(at)
    m = sim.run()
    ends = [(t, name, cid) for t, name, cid in trace if name in ("refund_end", "pay_end")]
    assert ends[:4] == [
        (3.0, "refund_end", 0), (7.0, "refund_end", 1), (10.0, "refund_end", 2),
        (11.0, "pay_end", 0),
    ]
    assert m.refunds_completed == m.transactions == 3


def test_ledger_reconciles_with_metrics(atv_week):
    sim = DepartmentSim(atv_week, seed=13, strict=True)
    m = sim.run()
    counts = sim.event_counts
    assert m.overall_satisfaction == m.satisfaction_ledger_sum == sim.ledger_sum
    assert counts[SatisfactionEvent.PURCHASE_COMPLETED] == m.transactions
    assert counts[SatisfactionEvent.REFUND_GRANTED] == m.refunds_completed
    assert counts[SatisfactionEvent.HELP_QUEUE_ABANDONED] == m.abandoned_help
    assert counts[SatisfactionEvent.PAY_QUEUE_ABANDONED] == m.abandoned_pay
    assert counts[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == m.abandoned_refund
    assert m.customers_entered == m.customers_left
    assert m.transactions > 0
    assert m.abandoned_pay + m.abandoned_help + m.abandoned_refund >= 0


def test_doubling_arrivals_never_helps_abandonment(atv_week):
    doubled = dataclasses.replace(
        atv_week, arrivals=ArrivalProfile(atv_week.arrivals.rate_per_hour * 2.0)
    )

    def abandoned(cfg, seed):
        m = run_replication(cfg, seed=seed)
        return m.abandoned_help + m.abandoned_pay + m.abandoned_refund

    violations = sum(
        1 for seed in range(20) if abandoned(doubled, seed) < abandoned(atv_week, seed)
    )
    assert violations <= 1


def test_order_of_injected_arrivals_is_by_time():
    trace = []
    sim = DepartmentSim(scripted(buy=0.0), seed=0, trace=trace, strict=True)
    sim.inject_arrival(5.0)
    sim.inject_arrival(1.0)
    sim.run()
    arrivals = [row for row in trace if row[1] == "arrival"]
    assert [row[0] for row in arrivals] == [1.0, 5.0]


def test_inject_arrival_refuses_a_config_with_arrivals_on():
    # Each arrival draws the next one's gap, so an injected arrival would
    # start a second Poisson stream beside the config's own.
    config = scripted(rate=30.0)
    sim = DepartmentSim(config, seed=3)
    with pytest.raises(ValueError, match=r"arrivals\.rate_per_hour = 0"):
        sim.inject_arrival(0.0)
    assert sim.cal.heap == []
    assert sim.run() == DepartmentSim(config, seed=3).run()


@pytest.mark.parametrize("at", [-1.0, math.inf, 61.0, math.nan, 60.0])
def test_inject_arrival_refuses_a_time_outside_the_horizon(at):
    # The config of scripts/refund_penalty_demo.py: one 60-minute day. An
    # arrival at the close is injected before run() schedules the close, so it
    # enters and the close sees it out; any other time is refused at the call.
    config = scripted(refund_goal=1.0, cashiers=0, managers=0, patience=8, day_minutes=60)
    sim = DepartmentSim(config, seed=0, strict=True)
    if at == 60.0:
        sim.inject_arrival(at)
    else:
        with pytest.raises(ValueError, match=re.escape(f"at={at} lies outside [0, horizon=60.0]")):
            sim.inject_arrival(at)
        assert sim.cal.heap == []
    sim.inject_arrival(5.0)
    m = sim.run()
    assert m.customers_entered == m.customers_left == (2 if at == 60.0 else 1)
    assert m.abandoned_refund == 1


def test_a_second_run_is_refused(atv_config):
    sim = DepartmentSim(shorten(atv_config, days=1), seed=1)
    sim.run()
    with pytest.raises(ValueError, match=r"run\(\) called twice: build a new DepartmentSim"):
        sim.run()


def test_an_arrival_injected_after_the_run_is_refused():
    sim = DepartmentSim(scripted(day_minutes=60), seed=0)
    sim.inject_arrival(5.0)
    sim.run()
    with pytest.raises(ValueError, match=r"inject_arrival after run\(\)"):
        sim.inject_arrival(10.0)
    assert sim.cal.heap == []


# -- identities of the metrics ------------------------------------------------------

CUSTOMERS_SHORT = "metrics at horizon, column 'customers_entered': must equal customers_left"


@pytest.fixture()
def one_customer_short(monkeypatch):
    """The model's metrics with customers_left one short of customers_entered."""
    metrics = DepartmentSim._metrics

    def one_short(self, horizon):
        m = metrics(self, horizon)
        return dataclasses.replace(m, customers_left=m.customers_left - 1)

    monkeypatch.setattr(DepartmentSim, "_metrics", one_short)


def test_metrics_that_break_an_identity_are_a_simulation_fault(one_customer_short, atv_config):
    with pytest.raises(SimulationFault) as excinfo:
        DepartmentSim(shorten(atv_config, days=1), seed=3).run()
    assert str(excinfo.value) == CUSTOMERS_SHORT


def test_a_sweep_names_the_cell_whose_metrics_break_an_identity(one_customer_short, atv_config):
    with pytest.raises(SimulationFault) as excinfo:
        run_sweep("cashiers", {"A&TV": shorten(atv_config, days=1)}, replications=1)
    seed = derive_cell_seed(1, "A&TV", 1, 1)
    assert str(excinfo.value) == (
        f"sweep cell department='A&TV' level=1 replication=1 seed={seed}: {CUSTOMERS_SHORT}"
    )


def test_run_exits_1_when_its_metrics_break_an_identity(one_customer_short, tmp_path, capsys):
    out = tmp_path / "run.csv"
    argv = ["run", "--config", "dept_atv", "--seed", "3", "--weeks", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"simulation fault: {CUSTOMERS_SHORT}\n"
    assert not out.exists()


# -- metamorphic relations ------------------------------------------------------------
#
# Exact relations that follow from the model's rules rather than from a
# recorded digest: a shorter horizon replays the start of a longer one, and a
# policy with nothing to act on changes nothing. Each runs strict, on 3-day
# horizons of both shipped departments.


def with_policy(config, **changes):
    """`config` with some [empowerment] fields replaced."""
    return dataclasses.replace(
        config, empowerment=dataclasses.replace(config.empowerment, **changes)
    )


def without_refunds(config):
    """`config` on 3 days, with no customer arriving to seek a refund."""
    probabilities = dataclasses.replace(config.probabilities, refund_goal=0.0)
    return shorten(dataclasses.replace(config, probabilities=probabilities), days=3)


def differing(runs):
    """The labels of runs whose metrics differ from the first run's."""
    (_, first), *rest = runs.items()
    return [label for label, metrics in rest if metrics != first]


@pytest.mark.parametrize("dept", ["atv", "ww"])
def test_three_day_trace_is_a_prefix_of_the_seven_day_trace(dept, request):
    config = request.getfixturevalue(f"{dept}_config")
    three, seven = [], []
    DepartmentSim(shorten(config, days=3), seed=7, trace=three, strict=True).run()
    DepartmentSim(shorten(config, days=7), seed=7, trace=seven, strict=True).run()
    assert three[-1] == (3 * config.horizon.trading_day_minutes, "day_close", None)
    assert seven[: len(three)] == three
    assert len(seven) > 2 * len(three)


@pytest.mark.parametrize("dept", ["atv", "ww"])
def test_without_refunds_no_empowerment_policy_matters(dept, request):
    base = without_refunds(request.getfixturevalue(f"{dept}_config"))
    policies = {
        p: DepartmentSim(with_policy(base, p_empowered=p), seed=7, strict=True).run()
        for p in (0.0, 0.5, 1.0)
    }
    assert differing(policies) == []
    reference = policies[0.0]
    assert reference.refunds_completed == reference.manager_authorizations == 0
    assert reference.transactions > 0


@pytest.mark.parametrize("dept", ["atv", "ww"])
def test_full_empowerment_needs_no_manager(dept, request):
    config = request.getfixturevalue(f"{dept}_config")
    base = with_policy(shorten(config, days=3), p_empowered=1.0)
    staffing = base.staffing
    extra_manager = dataclasses.replace(
        staffing, section_managers=staffing.section_managers + 1
    )
    runs = {
        "as shipped": DepartmentSim(base, seed=7, strict=True).run(),
        "extra manager": DepartmentSim(
            dataclasses.replace(base, staffing=extra_manager), seed=7, strict=True
        ).run(),
    }
    assert differing(runs) == []
    reference = runs["as shipped"]
    assert reference.autonomous_refunds > 0 and reference.manager_authorizations == 0
