"""Department simulation: determinism, scripted scenarios, and run invariants."""

import dataclasses
import tomllib

import pytest

from retailsim.agents import SatisfactionEvent
from retailsim.config import StaffingPlan, build_config
from retailsim.department import DepartmentSim, run_replication, utilization
from retailsim.results import METRIC_FIELDS
from retailsim.sampling import ArrivalProfile

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
patience_pay = {patience}

[probabilities]
need_help = {need_help}
buy_after_browse = {buy}
buy_after_help = 1.0
refund_goal = {refund_goal}
repurchase_after_refund = {repurchase}
needs_expert = 0.0
buy_after_browse_is_marginal = false

[staffing]
cashiers = {cashiers}
normal_sellers = {normal}
expert_sellers = {expert}
section_managers = {managers}

[empowerment]
p_empowered = {p_empowered}
hold_cashier_during_referral = {hold}
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
        hold="true",
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


# -- strict runs ------------------------------------------------------------------


def test_week_passes_strict_invariant_checks(atv_week, ww_week):
    m_atv = run_replication(atv_week, seed=3, strict=True)
    m_ww = run_replication(ww_week, seed=3, strict=True)
    assert m_atv.transactions > 0
    assert m_ww.transactions > m_atv.transactions  # busier door, quicker sales


def test_strict_run_with_referrals_and_release(atv_week):
    # Exercise the referred-refund path with the cashier released during
    # authorization, and a mixed empowerment split.
    for p, hold in ((0.0, False), (0.5, True)):
        policy = dataclasses.replace(
            atv_week.empowerment, p_empowered=p, hold_cashier_during_referral=hold
        )
        cfg = dataclasses.replace(atv_week, empowerment=policy)
        m = run_replication(cfg, seed=5, strict=True)
        assert m.refunds_completed > 0


# -- degenerate staffing and arrivals ---------------------------------------------


def test_zero_arrivals_zero_everything():
    m = run_replication(scripted(days=3), seed=9, strict=True)
    for field in METRIC_FIELDS:
        value = getattr(m, field)
        if field.endswith("utilization"):
            # Staffed roles idle all run; managers staffed too.
            expected = 0.0 if field != "seller_utilization" else None
            assert value == expected
        else:
            assert value == 0


def test_zero_cashiers_no_transactions(atv_week):
    m = DepartmentSim(
        atv_week, staffing=StaffingPlan(0, 5, 1, 1), seed=0, strict=True
    ).run()
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
    sim = DepartmentSim(scripted(need_help=1.0, normal=1), seed=0, strict=True)
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
    assert sim.ledger.counts[SatisfactionEvent.LEFT_WITHOUT_PURCHASE] == 1


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
        scripted(need_help=1.0, normal=1, help=10, day_minutes=5), seed=0, strict=True
    )
    sim.inject_arrival(0.0)
    m = sim.run()
    # Help started at 2 would end at 12; the close credits it and frees the seller.
    assert sim.ledger.counts[SatisfactionEvent.HELP_RECEIVED] == 1
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
    assert not any(s.busy for s in sim.cashiers + sim.managers)


def test_day_close_releases_both_staff_of_a_held_authorization():
    sim = refund_sim(p_empowered=0.0, hold="true", auth=10, day_minutes=5)
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
    assert sum(sim.ledger.counts.values()) == 0
    assert sim.ledger.total == 0
    assert m.customers_left == 1


# -- refund paths -------------------------------------------------------------------


def refund_sim(**overrides):
    sim = DepartmentSim(scripted(refund_goal=1.0, **overrides), seed=0, strict=True)
    sim.inject_arrival(0.0)
    return sim


def test_referred_refund_holds_cashier_through_authorization():
    sim = refund_sim(p_empowered=0.0, hold="true")
    m = sim.run()
    # Authorization 0-3 with the cashier parked, then processing 3-5.
    assert m.refunds_completed == 1
    assert m.manager_authorizations == 1
    assert m.autonomous_refunds == 0
    assert sim.cashiers[0].busy_minutes == 5.0
    assert sim.managers[0].busy_minutes == 3.0
    assert m.refund_satisfaction == 2
    assert m.overall_satisfaction == 2


def test_referred_refund_releases_cashier_when_configured():
    sim = refund_sim(p_empowered=0.0, hold="false")
    m = sim.run()
    # Cashier does the 2-minute part first, manager authorizes 2-5.
    assert m.refunds_completed == 1
    assert m.manager_authorizations == 1
    assert sim.cashiers[0].busy_minutes == 2.0
    assert sim.managers[0].busy_minutes == 3.0


def test_empowered_refund_skips_manager_and_scales_duration():
    sim = refund_sim(p_empowered=1.0, multiplier=2.0)
    m = sim.run()
    assert m.refunds_completed == 1
    assert m.autonomous_refunds == 1
    assert m.manager_authorizations == 0
    assert sim.cashiers[0].busy_minutes == 4.0
    assert sim.managers[0].busy_minutes == 0.0


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


def test_ledger_reconciles_with_metrics(atv_week):
    sim = DepartmentSim(atv_week, seed=13, strict=True)
    m = sim.run()
    counts = sim.ledger.counts
    assert m.overall_satisfaction == m.satisfaction_ledger_sum == sim.ledger.total
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
