"""The department model: one replication of customers moving through a store.

Event handlers drive CustomerAgents through the statechart over a horizon of
closed trading days. At each day close, customers in service are completed
through their current activity (purchase counted, help or refund credited)
and everyone else departs with the satisfaction already accumulated; staff
busy time never crosses a close, so utilization stays in [0, 1].

The calendar schedules each handler itself, and a trace names an event by its
handler without the `_on_` prefix. States are ints, staff lists id-ordered,
and each customer holds at most one pending event as a calendar token, so
nothing is ever cancelled: superseding the token makes the old event stale,
as starting a queued customer's service does to its renege timer. The service
queues hold the waiting customers themselves; handlers append, pop and clear
their deques directly, and an arrival's single decision draw sends it to the
refund path or to browsing. A browse end buys unassisted with probability
`Probabilities.browse_buy_conditional()`, and a customer who joins any queue
draws the time they will wait from `durations.patience`. The ledger is
`event_counts`, indexed by `SatisfactionEvent`, and `ledger_sum`. Handlers
read every other config value from `config` where they use it; README's
Performance section gives measured speeds.

A referred refund's authorization is a manager's service like any other,
while its cashier waits in `held_cashier`. The customers in store are `live`,
the one holder of who has not left. A replication returns a `RunMetrics`,
which checks its identities. It and `METRIC_FIELDS`, the metric names in CSV
column order, are defined in `results`, so the analysis reads them without
loading this model.
"""

from __future__ import annotations

import operator
from collections import deque

from .agents import (  # enum members as plain names: cheap on the hot path
    BEING_HELPED, BROWSING, IN_HELP_QUEUE, IN_PAY_QUEUE, IN_REFUND_QUEUE, LEAVING, PAYING,
    REFUND_PROCESSING, SEEKING_HELP, SEEKING_PAY, SEEKING_REFUND,
    CASHIER, EXPERT_SELLER, NORMAL_SELLER, SECTION_MANAGER,
    HELP_QUEUE_ABANDONED, HELP_RECEIVED, LEFT_WITHOUT_PURCHASE, PAY_QUEUE_ABANDONED,
    PURCHASE_COMPLETED, REFUND_GRANTED, REFUND_QUEUE_ABANDONED,
    CustomerAgent, CustomerState, SatisfactionEvent, StaffAgent,
)
from .kernel import EventCalendar, RngStream, SimulationFault
from .queueing import ServiceQueue, resolve_refund_path
from .results import METRIC_FIELDS, RunMetrics  # perfbench's tracer reads METRIC_FIELDS here
from .sampling import sample_interarrival, sample_triangular

# What settling a customer credits, indexed by the state they are in.
_CREDIT = tuple(
    {
        BEING_HELPED: HELP_RECEIVED,
        PAYING: PURCHASE_COMPLETED,
        REFUND_PROCESSING: REFUND_GRANTED,
    }.get(state)
    for state in CustomerState
)


def find_idle(staff_list):
    """First idle member (lowest id, lists are id-ordered), or None."""
    for staff in staff_list:
        if staff.busy_since is None:
            return staff
    return None


def utilization(busy_minutes, headcount, trading_minutes):
    """Busy fraction of total paid minutes; None when nobody holds the role."""
    if headcount == 0:
        return None
    return busy_minutes / (headcount * trading_minutes)


class DepartmentSim:
    """One seeded replication; build, optionally inject arrivals, then run()."""

    def __init__(self, config, seed=0, trace=None, strict=False):
        staffing = config.staffing
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
            (staffing.cashiers, CASHIER, self.cashiers),
            (staffing.normal_sellers, NORMAL_SELLER, self.normal_sellers),
            (staffing.expert_sellers, EXPERT_SELLER, self.expert_sellers),
            (staffing.section_managers, SECTION_MANAGER, self.managers),
        ):
            for _ in range(count):
                pool.append(StaffAgent(sid, role))
                sid += 1

        self.help_q = ServiceQueue(HELP_QUEUE_ABANDONED)
        self.pay_q = ServiceQueue(PAY_QUEUE_ABANDONED)
        self.refund_q = ServiceQueue(REFUND_QUEUE_ABANDONED)
        self._queues = {
            IN_HELP_QUEUE: self.help_q, IN_PAY_QUEUE: self.pay_q, IN_REFUND_QUEUE: self.refund_q,
        }
        self.auth_wait = deque()

        self.live = {}
        self.event_counts = [0] * len(SatisfactionEvent)
        self.ledger_sum = 0
        weights = config.satisfaction_weights
        self.weights = tuple(getattr(weights, e.name.lower()) for e in SatisfactionEvent)

        self.config = config
        self.p_buy_browse = config.probabilities.browse_buy_conditional()

        self.day_index = 0
        self.day_end = config.horizon.trading_day_minutes
        self.horizon = config.horizon.trading_day_minutes * config.horizon.days

        self.entered = 0  # also the next customer id; entered - len(live) have left
        self.satisfied = 0
        self.overall_satisfaction = 0
        self.manager_authorizations = 0
        self.autonomous_refunds = 0
        self.ran = False  # set by run(): a DepartmentSim runs one replication

    # -- public API ---------------------------------------------------------

    def inject_arrival(self, at):
        """Force an arrival at `at` in [0, horizon], arrivals off: each draws the next's gap."""
        if self.ran:
            raise ValueError("inject_arrival after run(): a DepartmentSim runs once")
        if self.config.arrivals.rate_per_hour:
            raise ValueError("inject_arrival needs arrivals.rate_per_hour = 0")
        if not 0.0 <= at <= self.horizon:  # NaN fails this too
            raise ValueError(f"inject_arrival at={at} lies outside [0, horizon={self.horizon}]")
        self.cal.schedule(at, self._on_arrival)

    def run(self):
        if self.ran:
            raise ValueError("run() called twice: build a new DepartmentSim for each run")
        self.ran = True
        cal = self.cal
        # Each day close schedules the next one, always ahead of that day's
        # first arrival, so a close precedes every same-time event of its day.
        cal.schedule(self.day_end, self._on_day_close)
        self._chain_arrival(0.0)
        observed = self.trace is not None or self.strict
        cal.run_until(self.horizon, self._observed if observed else operator.call)
        # Stale renege timers left in the heap hold bound handlers; dropping
        # them breaks the last cycle, so the replication is freed on return.
        cal.heap.clear()
        for pool in (self.cashiers, self.normal_sellers, self.expert_sellers, self.managers):
            for staff in pool:
                if staff.busy_since is not None:
                    raise SimulationFault(f"{staff!r} still busy at horizon")
        try:  # a customer still in store breaks customers_entered == customers_left
            return self._metrics(self.horizon)
        except ValueError as exc:
            raise SimulationFault(f"metrics at horizon, {exc}") from None

    # -- observers ----------------------------------------------------------

    def _observed(self, handler, target):
        """The dispatcher of a traced or strict run; others call the handler."""
        if self.trace is not None:
            name = handler.__name__.removeprefix("_on_")
            self.trace.append((self.cal.now, name, None if target is None else target.id))
        handler(target)
        if self.strict:
            self._check_invariants()

    def _check_invariants(self):
        """Check the queue, renege-timer and idle-staff rules; `RunMetrics` checks conservation."""
        # Token-checked calendar: an entry is live iff its target still holds
        # its seq, and a customer holds at most one live entry.
        renege_timers = {
            target.id for _, seq, kind, target in self.cal.heap
            if kind == self._on_renege and target.pending == seq
        }
        queued = set()
        for state, queue in self._queues.items():
            for c in queue.entries:
                if c.id in queued:
                    raise SimulationFault(f"customer {c.id} present in two queues")
                queued.add(c.id)
                if c.state is not state:
                    raise SimulationFault(
                        f"customer {c.id} is queued in {state.name} "
                        f"but is in state {c.state.name}"
                    )
                if c.id not in renege_timers:
                    raise SimulationFault(f"queued customer {c.id} lacks a live renege timer")
        stray = renege_timers - queued
        if stray:
            raise SimulationFault(f"customer {min(stray)} holds a renege timer outside any queue")
        if (self.pay_q.entries or self.refund_q.entries) and find_idle(self.cashiers) is not None:
            raise SimulationFault("idle cashier while pay/refund customers queue")
        if self.help_q.entries:
            if find_idle(self.expert_sellers) is not None:
                raise SimulationFault("idle expert seller while help customers queue")
            if find_idle(self.normal_sellers) is not None and any(
                not c.needs_expert for c in self.help_q.entries
            ):
                raise SimulationFault("idle normal seller while servable help entry queues")
        if self.auth_wait and find_idle(self.managers) is not None:
            raise SimulationFault("idle manager while refunds await authorization")

    # -- helpers ------------------------------------------------------------

    def _apply(self, customer, kind):
        w = self.weights[kind]
        customer.satisfaction += w
        self.event_counts[kind] += 1
        self.ledger_sum += w

    def _begin_service(self, staff, customer, duration, handler):
        """Seize idle `staff` for `customer` and schedule the completion.

        The completion calls `handler(customer)` and is the customer's pending
        event: it supersedes a renege timer, and a day close can supersede it.
        """
        now = self.cal.now
        staff.begin(now)
        customer.serving_staff = staff
        customer.pending = self.cal.schedule(now + duration, handler, customer)

    def _settle(self, customer, now):
        """Release the staff the customer holds; credit the service they are in.

        Clearing `pending` makes any event still scheduled for them stale.
        Browsing and queued customers hold no staff and earn no credit.
        """
        customer.pending = None
        if customer.serving_staff is not None:
            customer.serving_staff.finish(now)
            customer.serving_staff = None
        if customer.held_cashier is not None:
            customer.held_cashier.finish(now)
            customer.held_cashier = None
        kind = _CREDIT[customer.state]
        if kind is not None:
            self._apply(customer, kind)

    def _depart(self, customer):
        customer.transition(LEAVING)
        sat = customer.satisfaction
        self.overall_satisfaction += sat
        if sat > 0:
            self.satisfied += 1
        del self.live[customer.id]

    def _chain_arrival(self, now):
        gap = sample_interarrival(self.config.arrivals, self.rng_arrivals.uniform())
        at = now + gap
        if at < self.day_end:
            self.cal.schedule(at, self._on_arrival)

    def _request(self, customer, staff, start, state):
        """Start service with `staff` if one is idle, else queue in `state`."""
        if staff is not None:
            start(customer, staff)
            return
        customer.transition(state)
        wait = sample_triangular(self.config.durations.patience, self.rng_patience.uniform())
        customer.pending = self.cal.schedule(self.cal.now + wait, self._on_renege, customer)
        self._queues[state].entries.append(customer)

    def _staff_freed(self, staff):
        role = staff.role
        if role is CASHIER:  # refunds before payments
            if self.refund_q.entries:
                self._start_refund(self.refund_q.entries.popleft(), staff)
            elif self.pay_q.entries:
                self._start_pay(self.pay_q.entries.popleft(), staff)
        elif role is SECTION_MANAGER:
            if self.auth_wait:
                customer, overhead = self.auth_wait.popleft()
                self._begin_service(staff, customer, overhead, self._on_auth_end)
        else:
            customer = self.help_q.pop_first_servable(role is EXPERT_SELLER)
            if customer is not None:
                self._start_help(customer, staff)

    # -- customer flow ------------------------------------------------------

    def _on_arrival(self, _):
        now = self.cal.now
        cid = self.entered
        self.entered = cid + 1
        customer = self.live[cid] = CustomerAgent(cid)
        if self.rng_decisions.uniform() < self.config.probabilities.refund_goal:
            customer.transition(SEEKING_REFUND)
            self._request(customer, find_idle(self.cashiers), self._start_refund, IN_REFUND_QUEUE)
        else:
            self._begin_browse(customer, now)
        self._chain_arrival(now)

    def _begin_browse(self, customer, now):
        customer.transition(BROWSING)
        duration = sample_triangular(self.config.durations.browse, self.rng_service.uniform())
        customer.pending = self.cal.schedule(now + duration, self._on_browse_end, customer)

    def _on_browse_end(self, customer):
        dec = self.rng_decisions
        p = self.config.probabilities
        if dec.uniform() < p.need_help:
            customer.transition(SEEKING_HELP)
            customer.needs_expert = dec.uniform() < p.needs_expert
            if customer.needs_expert:
                staff = find_idle(self.expert_sellers)
            else:
                staff = find_idle(self.normal_sellers) or find_idle(self.expert_sellers)
            self._request(customer, staff, self._start_help, IN_HELP_QUEUE)
        elif dec.uniform() < self.p_buy_browse:
            customer.transition(SEEKING_PAY)
            self._request(customer, find_idle(self.cashiers), self._start_pay, IN_PAY_QUEUE)
        else:
            self._apply(customer, LEFT_WITHOUT_PURCHASE)
            self._depart(customer)

    def _start_help(self, customer, staff):
        customer.transition(BEING_HELPED)
        duration = sample_triangular(self.config.durations.help, self.rng_service.uniform())
        self._begin_service(staff, customer, duration, self._on_help_end)

    def _on_help_end(self, customer):
        staff = customer.serving_staff
        self._settle(customer, self.cal.now)
        if self.rng_decisions.uniform() < self.config.probabilities.buy_after_help:
            customer.transition(SEEKING_PAY)
            self._request(customer, find_idle(self.cashiers), self._start_pay, IN_PAY_QUEUE)
        else:
            self._depart(customer)
        self._staff_freed(staff)

    def _start_pay(self, customer, cashier):
        customer.transition(PAYING)
        duration = sample_triangular(self.config.durations.pay_service, self.rng_service.uniform())
        self._begin_service(cashier, customer, duration, self._on_pay_end)

    def _on_pay_end(self, customer):
        cashier = customer.serving_staff
        self._settle(customer, self.cal.now)
        self._depart(customer)
        self._staff_freed(cashier)

    # -- refunds ------------------------------------------------------------

    def _start_refund(self, customer, cashier):
        customer.transition(REFUND_PROCESSING)
        config = self.config
        base = sample_triangular(config.durations.refund_service, self.rng_service.uniform())
        duration, overhead = resolve_refund_path(
            config.empowerment, config.durations.manager_authorization, base,
            self.rng_decisions, self.rng_service,
        )
        if overhead is None:
            self.autonomous_refunds += 1
            self._begin_service(cashier, customer, duration, self._on_refund_end)
            return
        # Referred: the cashier is held through the manager's authorization, a
        # service that starts now if a manager is idle, then does the refund.
        self.manager_authorizations += 1
        cashier.begin(self.cal.now)
        customer.held_cashier = cashier
        customer.refund_base = duration
        customer.pending = None  # one just taken from the queue holds a renege timer
        manager = find_idle(self.managers)
        if manager is not None:
            self._begin_service(manager, customer, overhead, self._on_auth_end)
        else:
            self.auth_wait.append((customer, overhead))

    def _on_auth_end(self, customer):
        manager = customer.serving_staff
        now = self.cal.now
        manager.finish(now)
        customer.serving_staff = customer.held_cashier
        customer.held_cashier = None
        customer.pending = self.cal.schedule(
            now + customer.refund_base, self._on_refund_end, customer
        )
        self._staff_freed(manager)

    def _on_refund_end(self, customer):
        cashier = customer.serving_staff
        self._settle(customer, self.cal.now)
        if self.rng_decisions.uniform() < self.config.probabilities.repurchase_after_refund:
            self._begin_browse(customer, self.cal.now)
        else:
            self._depart(customer)
        self._staff_freed(cashier)

    # -- reneging and day close ---------------------------------------------

    def _on_renege(self, customer):
        queue = self._queues[customer.state]
        queue.remove(customer)
        self._apply(customer, queue.abandoned)
        self._depart(customer)

    def _on_day_close(self, _):
        now = self.cal.now
        for customer in list(self.live.values()):
            self._settle(customer, now)
            self._depart(customer)
        for queue in self._queues.values():
            queue.entries.clear()
        self.auth_wait.clear()
        self.day_index += 1
        horizon = self.config.horizon
        if self.day_index < horizon.days:
            self.day_end = (self.day_index + 1) * horizon.trading_day_minutes
            self.cal.schedule(self.day_end, self._on_day_close)
            self._chain_arrival(now)

    # -- metrics ------------------------------------------------------------

    def _metrics(self, horizon):
        cashier_busy = sum(s.busy_minutes for s in self.cashiers)
        seller_busy = sum(s.busy_minutes for s in self.normal_sellers) + sum(
            s.busy_minutes for s in self.expert_sellers
        )
        manager_busy = sum(s.busy_minutes for s in self.managers)
        sellers = len(self.normal_sellers) + len(self.expert_sellers)
        counts = self.event_counts
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
            customers_left=self.entered - len(self.live),
            abandoned_help=counts[HELP_QUEUE_ABANDONED],
            abandoned_pay=counts[PAY_QUEUE_ABANDONED],
            abandoned_refund=counts[REFUND_QUEUE_ABANDONED],
            refunds_completed=counts[REFUND_GRANTED],
            manager_authorizations=self.manager_authorizations,
            autonomous_refunds=self.autonomous_refunds,
            satisfaction_ledger_sum=self.ledger_sum,
        )


def run_replication(config, seed=0):
    """Run one deterministic replication; same arguments, same RunMetrics."""
    return DepartmentSim(config, seed=seed).run()
