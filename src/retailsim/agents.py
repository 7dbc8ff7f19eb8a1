"""Customer and staff agents, the customer statechart, satisfaction ledger.

Customers are passive records driven by the department's event handlers; the
statechart here only polices that each transition is legal, so a handler bug
surfaces as an IllegalTransition naming the state and trigger instead of
silently corrupting counters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CustomerGoal(enum.Enum):
    PURCHASE = "purchase"
    REFUND = "refund"


class CustomerState(enum.Enum):
    ENTERING = "entering"
    BROWSING = "browsing"
    SEEKING_HELP = "seeking_help"
    IN_HELP_QUEUE = "in_help_queue"
    BEING_HELPED = "being_helped"
    SEEKING_PAY = "seeking_pay"
    IN_PAY_QUEUE = "in_pay_queue"
    PAYING = "paying"
    SEEKING_REFUND = "seeking_refund"
    IN_REFUND_QUEUE = "in_refund_queue"
    REFUND_PROCESSING = "refund_processing"
    LEAVING = "leaving"


class StaffRole(enum.Enum):
    CASHIER = "cashier"
    NORMAL_SELLER = "normal_seller"
    EXPERT_SELLER = "expert_seller"
    SECTION_MANAGER = "section_manager"


class SatisfactionEvent(enum.Enum):
    PURCHASE_COMPLETED = "purchase_completed"
    HELP_RECEIVED = "help_received"
    REFUND_GRANTED = "refund_granted"
    HELP_QUEUE_ABANDONED = "help_queue_abandoned"
    PAY_QUEUE_ABANDONED = "pay_queue_abandoned"
    REFUND_QUEUE_ABANDONED = "refund_queue_abandoned"
    LEFT_WITHOUT_PURCHASE = "left_without_purchase"


# Legal statechart edges. LEAVING is absorbing. Refund-goal customers enter
# the refund path directly; everyone else starts browsing.
_ALLOWED = {
    CustomerState.ENTERING: frozenset(
        {CustomerState.BROWSING, CustomerState.SEEKING_REFUND}
    ),
    CustomerState.BROWSING: frozenset(
        {CustomerState.SEEKING_HELP, CustomerState.SEEKING_PAY, CustomerState.LEAVING}
    ),
    CustomerState.SEEKING_HELP: frozenset(
        {CustomerState.BEING_HELPED, CustomerState.IN_HELP_QUEUE}
    ),
    CustomerState.IN_HELP_QUEUE: frozenset(
        {CustomerState.BEING_HELPED, CustomerState.LEAVING}
    ),
    CustomerState.BEING_HELPED: frozenset(
        {CustomerState.SEEKING_PAY, CustomerState.LEAVING}
    ),
    CustomerState.SEEKING_PAY: frozenset(
        {CustomerState.PAYING, CustomerState.IN_PAY_QUEUE}
    ),
    CustomerState.IN_PAY_QUEUE: frozenset(
        {CustomerState.PAYING, CustomerState.LEAVING}
    ),
    CustomerState.PAYING: frozenset({CustomerState.LEAVING}),
    CustomerState.SEEKING_REFUND: frozenset(
        {CustomerState.REFUND_PROCESSING, CustomerState.IN_REFUND_QUEUE}
    ),
    CustomerState.IN_REFUND_QUEUE: frozenset(
        {CustomerState.REFUND_PROCESSING, CustomerState.LEAVING}
    ),
    CustomerState.REFUND_PROCESSING: frozenset(
        {CustomerState.BROWSING, CustomerState.LEAVING}
    ),
    CustomerState.LEAVING: frozenset(),
}


class IllegalTransition(RuntimeError):
    """Raised when an event arrives for a customer in an incompatible state."""


class CustomerAgent:
    """One shopper. Mutable slots only; behaviour lives in the department."""

    __slots__ = (
        "id",
        "goal",
        "state",
        "satisfaction",
        "entered_at",
        "needs_expert",
        "pending",
        "serving_staff",
        "queue_entry",
        "refund_base",
        "refund_overhead",
        "auth_manager",
    )

    def __init__(self, cid, goal, entered_at):
        self.id = cid
        self.goal = goal
        self.state = CustomerState.ENTERING
        self.satisfaction = 0
        self.entered_at = entered_at
        self.needs_expert = False
        self.pending = None
        self.serving_staff = None
        self.queue_entry = None
        self.refund_base = 0.0
        self.refund_overhead = 0.0
        self.auth_manager = None

    def transition(self, new_state, trigger):
        if new_state not in _ALLOWED[self.state]:
            raise IllegalTransition(
                f"customer {self.id}: illegal transition "
                f"{self.state.name} -> {new_state.name} on trigger {trigger!r}"
            )
        self.state = new_state

    def __repr__(self):
        return (
            f"CustomerAgent(id={self.id}, goal={self.goal.name}, "
            f"state={self.state.name}, satisfaction={self.satisfaction})"
        )


class StaffAgent:
    """One staff member. busy_minutes accrues when a service finishes."""

    __slots__ = ("id", "role", "busy", "busy_minutes", "busy_since")

    def __init__(self, sid, role):
        self.id = sid
        self.role = role
        self.busy = False
        self.busy_minutes = 0.0
        self.busy_since = 0.0

    def begin(self, now):
        if self.busy:
            raise RuntimeError(f"staff {self.id} ({self.role.name}) is not idle")
        self.busy = True
        self.busy_since = now

    def finish(self, now):
        if not self.busy:
            raise RuntimeError(f"staff {self.id} ({self.role.name}) is not busy")
        self.busy_minutes += now - self.busy_since
        self.busy = False

    def __repr__(self):
        return f"StaffAgent(id={self.id}, role={self.role.name}, busy={self.busy})"


def begin_service(staff, customer, duration, calendar, kind):
    """Seize an idle staff member for `customer` and schedule the completion.

    Returns the completion event handle (also the customer's pending event,
    so a day close can cancel it).
    """
    staff.begin(calendar.now)
    customer.serving_staff = staff
    handle = calendar.schedule(calendar.now + duration, kind, customer)
    customer.pending = handle
    return handle


_DEFAULT_WEIGHTS = {
    SatisfactionEvent.PURCHASE_COMPLETED: 2,
    SatisfactionEvent.HELP_RECEIVED: 1,
    SatisfactionEvent.REFUND_GRANTED: 2,
    SatisfactionEvent.HELP_QUEUE_ABANDONED: -2,
    SatisfactionEvent.PAY_QUEUE_ABANDONED: -3,
    SatisfactionEvent.REFUND_QUEUE_ABANDONED: -4,
    SatisfactionEvent.LEFT_WITHOUT_PURCHASE: 0,
}


@dataclass(frozen=True)
class SatisfactionWeights:
    """Integer weight per satisfaction event kind.

    The mapping is treated as immutable after construction (a plain dict is
    kept so configs stay picklable for multi-process sweeps).
    """

    weights: dict

    @classmethod
    def defaults(cls):
        return cls(dict(_DEFAULT_WEIGHTS))

    @classmethod
    def from_mapping(cls, mapping):
        """Build from {event-name: int}; unknown kinds or non-ints are errors."""
        merged = dict(_DEFAULT_WEIGHTS)
        by_name = {e.value: e for e in SatisfactionEvent}
        for key, value in mapping.items():
            event = by_name.get(key)
            if event is None:
                raise ValueError(
                    f"unknown satisfaction event kind {key!r}; "
                    f"known kinds: {sorted(by_name)}"
                )
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"satisfaction weight for {key!r} must be an integer, got {value!r}"
                )
            merged[event] = value
        return cls(merged)

    def __getitem__(self, kind):
        return self.weights[kind]


class SatisfactionLedger:
    """Run-wide record of satisfaction events: per-kind counts plus exact sum."""

    __slots__ = ("counts", "total")

    def __init__(self):
        self.counts = {kind: 0 for kind in SatisfactionEvent}
        self.total = 0

    def record(self, kind, weight):
        self.counts[kind] += 1
        self.total += weight


def spawn_customer(cid, entered_at, refund_goal_prob, u):
    """New customer in ENTERING; goal is Refund with probability refund_goal_prob."""
    goal = CustomerGoal.REFUND if u < refund_goal_prob else CustomerGoal.PURCHASE
    return CustomerAgent(cid, goal, entered_at)
