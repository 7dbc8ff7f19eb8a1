"""The department model: one replication of customers moving through a store.

Event handlers drive CustomerAgents through the statechart over a horizon of
closed trading days. At each day close, customers in service are completed
through their current activity (purchase counted, help or refund credited)
and everyone else departs with the satisfaction already accumulated; staff
busy time never crosses a close, so utilization stays in [0, 1].

Handlers use plain-int event kinds, int-valued states and id-ordered staff
lists, and each customer holds at most one pending event as a calendar token,
so nothing is ever cancelled: superseding the token makes the old event stale.
A 10-week WW replication (about 56k customers and 190k events) runs in about
0.65 s on one core of a 2-vCPU VM, which the experiment harness relies on.

A replication returns a `RunMetrics`. It and `METRIC_FIELDS`, the metric
names in CSV column order, are defined in `results`, so the analysis reads
them without loading this model.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .agents import (  # enum members as plain names: cheap on the hot path
    BEING_HELPED, BROWSING, IN_HELP_QUEUE, IN_PAY_QUEUE, IN_REFUND_QUEUE, LEAVING, PAYING,
    REFUND_PROCESSING, SEEKING_HELP, SEEKING_PAY, SEEKING_REFUND,
    CASHIER, EXPERT_SELLER, NORMAL_SELLER, SECTION_MANAGER, PURCHASE, REFUND,
    HELP_QUEUE_ABANDONED, HELP_RECEIVED, LEFT_WITHOUT_PURCHASE, PAY_QUEUE_ABANDONED,
    PURCHASE_COMPLETED, REFUND_GRANTED, REFUND_QUEUE_ABANDONED,
    CustomerState, SatisfactionEvent, SatisfactionLedger, StaffAgent,
    begin_service, spawn_customer,
)
from .kernel import EventCalendar, RngStream, SimulationFault
from .queueing import QueueEntry, QueueKind, ServiceQueue, find_idle, resolve_refund_path
from .results import METRIC_FIELDS, RunMetrics  # perfbench's tracer reads METRIC_FIELDS here
from .sampling import TriangularParams, sample_interarrival, sample_triangular

EV_ARRIVAL = 0
EV_DAY_CLOSE = 1
EV_BROWSE_END = 2
EV_HELP_END = 3
EV_PAY_END = 4
EV_REFUND_END = 5
EV_REFUND_SERVICE_END = 6
EV_AUTH_END = 7
EV_RENEGE = 8

EVENT_NAMES = (
    "arrival",
    "day_close",
    "browse_end",
    "help_end",
    "pay_end",
    "refund_end",
    "refund_service_end",
    "auth_end",
    "renege",
)

# What settling a customer credits, indexed by the state they are in.
_CREDIT = tuple(
    {
        BEING_HELPED: HELP_RECEIVED,
        PAYING: PURCHASE_COMPLETED,
        REFUND_PROCESSING: REFUND_GRANTED,
    }.get(state)
    for state in CustomerState
)


class _QueueSpec(NamedTuple):
    """One service queue and its reneging rule."""

    queue: ServiceQueue
    patience: TriangularParams
    abandoned: SatisfactionEvent
    enqueue_trigger: str
    renege_trigger: str


def utilization(busy_minutes, headcount, trading_minutes):
    """Busy fraction of total paid minutes; None when nobody holds the role."""
    if headcount == 0:
        return None
    return busy_minutes / (headcount * trading_minutes)


class DepartmentSim:
    """One seeded replication; build, optionally inject arrivals, then run()."""

    def __init__(self, config, staffing=None, seed=0, trace=None, strict=False):
        self.config = config
        self.staffing = staffing if staffing is not None else config.staffing
        self.seed = seed
        self.cal = EventCalendar()
        self.trace = trace
        self.strict = strict

        self.rng_arrivals = RngStream(seed, "arrivals")
        self.rng_decisions = RngStream(seed, "decisions")
        self.rng_service = RngStream(seed, "service")
        self.rng_patience = RngStream(seed, "patience")

        sid = 0
        self.cashiers = []
        self.normal_sellers = []
        self.expert_sellers = []
        self.managers = []
        for count, role, pool in (
            (self.staffing.cashiers, CASHIER, self.cashiers),
            (self.staffing.normal_sellers, NORMAL_SELLER, self.normal_sellers),
            (self.staffing.expert_sellers, EXPERT_SELLER, self.expert_sellers),
            (self.staffing.section_managers, SECTION_MANAGER, self.managers),
        ):
            for _ in range(count):
                pool.append(StaffAgent(sid, role))
                sid += 1

        d = config.durations
        self.help_q = ServiceQueue(QueueKind.HELP)
        self.pay_q = ServiceQueue(QueueKind.PAY)
        self.refund_q = ServiceQueue(QueueKind.REFUND)
        self._queues = {
            IN_HELP_QUEUE: _QueueSpec(
                self.help_q, d.patience_help, HELP_QUEUE_ABANDONED,
                "help_enqueue", "help_renege",
            ),
            IN_PAY_QUEUE: _QueueSpec(
                self.pay_q, d.patience_pay, PAY_QUEUE_ABANDONED,
                "pay_enqueue", "pay_renege",
            ),
            IN_REFUND_QUEUE: _QueueSpec(
                self.refund_q, d.patience_refund, REFUND_QUEUE_ABANDONED,
                "refund_enqueue", "refund_renege",
            ),
        }
        self._cashier_dispatch = tuple(
            (self.refund_q, self._start_refund)
            if name == "refund"
            else (self.pay_q, self._start_pay)
            for name in config.cashier_priority
        )
        self.auth_wait = deque()

        self.live = {}
        self.ledger = SatisfactionLedger()
        self.weights = config.weights.weights

        # Hot-path copies of config values.
        self.arrivals = config.arrivals
        p = config.probabilities
        self.p_refund_goal = p.refund_goal
        self.p_need_help = p.need_help
        self.p_buy_browse = p.browse_buy_conditional()
        self.p_buy_after_help = p.buy_after_help
        self.p_needs_expert = p.needs_expert
        self.p_repurchase = p.repurchase_after_refund
        self.d_browse = d.browse
        self.d_help = d.help
        self.d_pay = d.pay_service
        self.d_refund = d.refund_service
        self.policy = config.empowerment
        self.hold_cashier = config.empowerment.hold_cashier_during_referral

        self.day_minutes = config.horizon.trading_day_minutes
        self.days = config.horizon.days
        self.day_index = 0
        self.day_end = self.day_minutes

        self.entered = 0  # also the next customer id
        self.departed = 0
        self.satisfied = 0
        self.overall_satisfaction = 0
        self.manager_authorizations = 0
        self.autonomous_refunds = 0

        self._handlers = (
            self._on_arrival,
            self._on_day_close,
            self._on_browse_end,
            self._on_help_end,
            self._on_pay_end,
            self._on_refund_end,
            self._on_refund_service_end,
            self._on_auth_end,
            self._on_renege,
        )

    # -- public API ---------------------------------------------------------

    def inject_arrival(self, at):
        """Force an arrival at an absolute time (scripted scenarios)."""
        self.cal.schedule(at, EV_ARRIVAL)

    def run(self):
        cal = self.cal
        horizon = self.day_minutes * self.days
        # Each day close schedules the next one, always ahead of that day's
        # first arrival, so a close precedes every same-time event of its day.
        cal.schedule(self.day_end, EV_DAY_CLOSE)
        self._chain_arrival(0.0)
        cal.run_until(horizon, self._dispatch)
        if self.live:
            raise SimulationFault(f"{len(self.live)} customers still in store at horizon")
        for pool in (self.cashiers, self.normal_sellers, self.expert_sellers, self.managers):
            for staff in pool:
                if staff.busy:
                    raise SimulationFault(f"{staff!r} still busy at horizon")
        return self._metrics(horizon)

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, kind, target):
        if self.trace is not None:
            self.trace.append(
                (self.cal.now, EVENT_NAMES[kind], None if target is None else target.id)
            )
        self._handlers[kind](target)
        if self.strict:
            self._check_invariants()

    def _check_invariants(self):
        if self.entered - self.departed != len(self.live):
            raise SimulationFault(
                f"conservation broken: entered={self.entered} "
                f"departed={self.departed} live={len(self.live)}"
            )
        # Token-checked calendar: an entry is live iff its target still holds
        # its seq, and a customer holds at most one live entry.
        renege_timers = {
            target.id for _, seq, kind, target in self.cal.heap
            if kind == EV_RENEGE and target.pending == seq
        }
        queued = set()
        for state, spec in self._queues.items():
            for entry in spec.queue.entries:
                c = entry.customer
                if c.id in queued:
                    raise SimulationFault(f"customer {c.id} present in two queues")
                queued.add(c.id)
                if c.state is not state:
                    raise SimulationFault(
                        f"customer {c.id} sits in the {spec.queue.kind.value} queue "
                        f"but is in state {c.state.name}"
                    )
                if c.queue_entry is not entry:
                    raise SimulationFault(f"customer {c.id} queue_entry out of sync")
                if c.id not in renege_timers:
                    raise SimulationFault(
                        f"queued customer {c.id} lacks a live renege timer"
                    )
        stray = renege_timers - queued
        if stray:
            raise SimulationFault(
                f"customer {min(stray)} holds a renege timer outside any queue"
            )
        if (self.pay_q.entries or self.refund_q.entries) and find_idle(
            self.cashiers
        ) is not None:
            raise SimulationFault("idle cashier while pay/refund customers queue")
        if self.help_q.entries:
            if find_idle(self.expert_sellers) is not None:
                raise SimulationFault("idle expert seller while help customers queue")
            if find_idle(self.normal_sellers) is not None and any(
                not e.needs_expert for e in self.help_q.entries
            ):
                raise SimulationFault("idle normal seller while servable help entry queues")
        if self.auth_wait and find_idle(self.managers) is not None:
            raise SimulationFault("idle manager while refunds await authorization")

    # -- helpers ------------------------------------------------------------

    def _apply(self, customer, kind):
        w = self.weights[kind]
        customer.satisfaction += w
        self.ledger.record(kind, w)

    def _settle(self, customer, now):
        """Release the staff the customer holds; credit the service they are in.

        Clearing `pending` makes any event still scheduled for them stale.
        Browsing and queued customers hold no staff and earn no credit.
        """
        customer.pending = None
        if customer.serving_staff is not None:
            customer.serving_staff.finish(now)
            customer.serving_staff = None
        if customer.auth_manager is not None:
            customer.auth_manager.finish(now)
            customer.auth_manager = None
        kind = _CREDIT[customer.state]
        if kind is not None:
            self._apply(customer, kind)

    def _depart(self, customer, trigger):
        customer.transition(LEAVING, trigger)
        self.departed += 1
        sat = customer.satisfaction
        self.overall_satisfaction += sat
        if sat > 0:
            self.satisfied += 1
        del self.live[customer.id]

    def _chain_arrival(self, now):
        gap = sample_interarrival(self.arrivals, self.rng_arrivals.uniform())
        at = now + gap
        if at < self.day_end:
            self.cal.schedule(at, EV_ARRIVAL)

    def _request(self, customer, staff, start, state):
        """Start service with `staff` if one is idle, else queue in `state`."""
        if staff is not None:
            start(customer, staff)
            return
        spec = self._queues[state]
        customer.transition(state, spec.enqueue_trigger)
        now = self.cal.now
        entry = QueueEntry(customer, now, customer.needs_expert)
        wait = sample_triangular(spec.patience, self.rng_patience.uniform())
        customer.pending = self.cal.schedule(now + wait, EV_RENEGE, customer)
        customer.queue_entry = entry
        spec.queue.push(entry)

    def _claim(self, entry):
        """Take a queued customer for service; makes the renege timer stale."""
        customer = entry.customer
        customer.pending = None
        customer.queue_entry = None
        return customer

    def _staff_freed(self, staff):
        role = staff.role
        if role is CASHIER:
            for queue, starter in self._cashier_dispatch:
                entry = queue.pop_head()
                if entry is not None:
                    starter(self._claim(entry), staff)
                    return
        elif role is SECTION_MANAGER:
            if self.auth_wait:
                self._begin_auth(self.auth_wait.popleft(), staff)
        else:
            entry = self.help_q.pop_first_servable(role is EXPERT_SELLER)
            if entry is not None:
                self._start_help(self._claim(entry), staff)

    # -- customer flow ------------------------------------------------------

    def _on_arrival(self, _):
        now = self.cal.now
        cid = self.entered
        self.entered = cid + 1
        customer = spawn_customer(cid, now, self.p_refund_goal, self.rng_decisions.uniform())
        self.live[cid] = customer
        if customer.goal is REFUND:
            customer.transition(SEEKING_REFUND, "arrival")
            self._request(customer, find_idle(self.cashiers), self._start_refund, IN_REFUND_QUEUE)
        else:
            customer.transition(BROWSING, "arrival")
            self._begin_browse(customer, now)
        self._chain_arrival(now)

    def _begin_browse(self, customer, now):
        duration = sample_triangular(self.d_browse, self.rng_service.uniform())
        customer.pending = self.cal.schedule(now + duration, EV_BROWSE_END, customer)

    def _on_browse_end(self, customer):
        dec = self.rng_decisions
        if dec.uniform() < self.p_need_help:
            customer.transition(SEEKING_HELP, "browse_exit_help")
            customer.needs_expert = dec.uniform() < self.p_needs_expert
            if customer.needs_expert:
                staff = find_idle(self.expert_sellers)
            else:
                staff = find_idle(self.normal_sellers) or find_idle(self.expert_sellers)
            self._request(customer, staff, self._start_help, IN_HELP_QUEUE)
        elif dec.uniform() < self.p_buy_browse:
            customer.transition(SEEKING_PAY, "browse_exit_buy")
            self._request(customer, find_idle(self.cashiers), self._start_pay, IN_PAY_QUEUE)
        else:
            self._apply(customer, LEFT_WITHOUT_PURCHASE)
            self._depart(customer, "browse_exit_leave")

    def _start_help(self, customer, staff):
        customer.transition(BEING_HELPED, "help_start")
        duration = sample_triangular(self.d_help, self.rng_service.uniform())
        begin_service(staff, customer, duration, self.cal, EV_HELP_END)

    def _on_help_end(self, customer):
        staff = customer.serving_staff
        self._settle(customer, self.cal.now)
        if self.rng_decisions.uniform() < self.p_buy_after_help:
            customer.transition(SEEKING_PAY, "help_exit_buy")
            self._request(customer, find_idle(self.cashiers), self._start_pay, IN_PAY_QUEUE)
        else:
            self._depart(customer, "help_exit_leave")
        self._staff_freed(staff)

    def _start_pay(self, customer, cashier):
        customer.transition(PAYING, "pay_start")
        duration = sample_triangular(self.d_pay, self.rng_service.uniform())
        begin_service(cashier, customer, duration, self.cal, EV_PAY_END)

    def _on_pay_end(self, customer):
        cashier = customer.serving_staff
        self._settle(customer, self.cal.now)
        self._depart(customer, "pay_done")
        self._staff_freed(cashier)

    # -- refunds ------------------------------------------------------------

    def _start_refund(self, customer, cashier):
        customer.transition(REFUND_PROCESSING, "refund_start")
        base = sample_triangular(self.d_refund, self.rng_service.uniform())
        duration, overhead = resolve_refund_path(
            self.policy, base, self.rng_decisions, self.rng_service
        )
        if overhead is None:
            self.autonomous_refunds += 1
            begin_service(cashier, customer, duration, self.cal, EV_REFUND_END)
            return
        self.manager_authorizations += 1
        customer.refund_overhead = overhead
        if not self.hold_cashier:
            # The cashier does the service part alone; the manager signs off after.
            begin_service(cashier, customer, duration, self.cal, EV_REFUND_SERVICE_END)
            return
        cashier.begin(self.cal.now)
        customer.serving_staff = cashier
        customer.refund_base = duration
        self._refer(customer)

    def _refer(self, customer):
        """Hand a refund to an idle manager, or park it until one is freed."""
        manager = find_idle(self.managers)
        if manager is not None:
            self._begin_auth(customer, manager)
        else:
            self.auth_wait.append(customer)

    def _begin_auth(self, customer, manager):
        now = self.cal.now
        manager.begin(now)
        customer.auth_manager = manager
        customer.pending = self.cal.schedule(
            now + customer.refund_overhead, EV_AUTH_END, customer
        )

    def _on_auth_end(self, customer):
        manager = customer.auth_manager
        now = self.cal.now
        if self.hold_cashier:
            manager.finish(now)
            customer.auth_manager = None
            customer.pending = self.cal.schedule(
                now + customer.refund_base, EV_REFUND_END, customer
            )
        else:
            self._settle(customer, now)
            self._after_refund(customer)
        self._staff_freed(manager)

    def _on_refund_service_end(self, customer):
        cashier = customer.serving_staff
        cashier.finish(self.cal.now)
        customer.serving_staff = None
        self._refer(customer)
        self._staff_freed(cashier)

    def _on_refund_end(self, customer):
        cashier = customer.serving_staff
        self._settle(customer, self.cal.now)
        self._after_refund(customer)
        self._staff_freed(cashier)

    def _after_refund(self, customer):
        if self.rng_decisions.uniform() < self.p_repurchase:
            customer.goal = PURCHASE
            customer.transition(BROWSING, "refund_repurchase")
            self._begin_browse(customer, self.cal.now)
        else:
            self._depart(customer, "refund_done")

    # -- reneging and day close ---------------------------------------------

    def _on_renege(self, customer):
        spec = self._queues[customer.state]
        spec.queue.remove(customer.queue_entry)
        customer.queue_entry = None
        self._apply(customer, spec.abandoned)
        self._depart(customer, spec.renege_trigger)

    def _on_day_close(self, _):
        now = self.cal.now
        for customer in list(self.live.values()):
            customer.queue_entry = None
            self._settle(customer, now)
            self._depart(customer, "day_close")
        self.help_q.drain()
        self.pay_q.drain()
        self.refund_q.drain()
        self.auth_wait.clear()
        self.day_index += 1
        if self.day_index < self.days:
            self.day_end = (self.day_index + 1) * self.day_minutes
            self.cal.schedule(self.day_end, EV_DAY_CLOSE)
            self._chain_arrival(now)

    # -- metrics ------------------------------------------------------------

    def _metrics(self, horizon):
        cashier_busy = sum(s.busy_minutes for s in self.cashiers)
        seller_busy = sum(s.busy_minutes for s in self.normal_sellers) + sum(
            s.busy_minutes for s in self.expert_sellers
        )
        manager_busy = sum(s.busy_minutes for s in self.managers)
        sellers = len(self.normal_sellers) + len(self.expert_sellers)
        counts = self.ledger.counts
        refund_kinds = (REFUND_GRANTED, REFUND_QUEUE_ABANDONED)
        return RunMetrics(
            transactions=counts[PURCHASE_COMPLETED],
            satisfied_customers=self.satisfied,
            overall_satisfaction=self.overall_satisfaction,
            refund_satisfaction=sum(counts[k] * self.weights[k] for k in refund_kinds),
            cashier_utilization=utilization(cashier_busy, len(self.cashiers), horizon),
            seller_utilization=utilization(seller_busy, sellers, horizon),
            manager_utilization=utilization(manager_busy, len(self.managers), horizon),
            customers_entered=self.entered,
            customers_left=self.departed,
            abandoned_help=counts[HELP_QUEUE_ABANDONED],
            abandoned_pay=counts[PAY_QUEUE_ABANDONED],
            abandoned_refund=counts[REFUND_QUEUE_ABANDONED],
            refunds_completed=counts[REFUND_GRANTED],
            manager_authorizations=self.manager_authorizations,
            autonomous_refunds=self.autonomous_refunds,
            satisfaction_ledger_sum=self.ledger.total,
        )


def run_replication(config, staffing=None, seed=0, trace=None, strict=False):
    """Run one deterministic replication; same arguments, same RunMetrics."""
    return DepartmentSim(config, staffing=staffing, seed=seed, trace=trace, strict=strict).run()
