"""Customer and staff agents, the customer statechart, satisfaction ledger.

Customers are passive records driven by the department's event handlers; the
statechart here only polices that each transition is legal, so a handler bug
surfaces as an IllegalTransition naming the state and trigger instead of
silently corrupting counters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CustomerGoal(enum.IntEnum):
    PURCHASE = 0
    REFUND = 1


class CustomerState(enum.IntEnum):
    ENTERING = 0
    BROWSING = 1
    SEEKING_HELP = 2
    IN_HELP_QUEUE = 3
    BEING_HELPED = 4
    SEEKING_PAY = 5
    IN_PAY_QUEUE = 6
    PAYING = 7
    SEEKING_REFUND = 8
    IN_REFUND_QUEUE = 9
    REFUND_PROCESSING = 10
    LEAVING = 11


class StaffRole(enum.IntEnum):
    CASHIER = 0
    NORMAL_SELLER = 1
    EXPERT_SELLER = 2
    SECTION_MANAGER = 3


class SatisfactionEvent(enum.IntEnum):
    PURCHASE_COMPLETED = 0
    HELP_RECEIVED = 1
    REFUND_GRANTED = 2
    HELP_QUEUE_ABANDONED = 3
    PAY_QUEUE_ABANDONED = 4
    REFUND_QUEUE_ABANDONED = 5
    LEFT_WITHOUT_PURCHASE = 6


# Every member bound to a module name once: reading an attribute of an Enum
# class goes through its metaclass and costs several global lookups.
PURCHASE, REFUND = CustomerGoal
(
    ENTERING, BROWSING, SEEKING_HELP, IN_HELP_QUEUE, BEING_HELPED, SEEKING_PAY,
    IN_PAY_QUEUE, PAYING, SEEKING_REFUND, IN_REFUND_QUEUE, REFUND_PROCESSING, LEAVING,
) = CustomerState
CASHIER, NORMAL_SELLER, EXPERT_SELLER, SECTION_MANAGER = StaffRole
(
    PURCHASE_COMPLETED, HELP_RECEIVED, REFUND_GRANTED, HELP_QUEUE_ABANDONED,
    PAY_QUEUE_ABANDONED, REFUND_QUEUE_ABANDONED, LEFT_WITHOUT_PURCHASE,
) = SatisfactionEvent

# Legal statechart edges as one bitmask per state (bit t set: may move to
# state t). LEAVING is absorbing. Refund-goal customers enter the refund path
# directly; everyone else starts browsing.
_ALLOWED = tuple(
    sum(1 << target for target in targets)
    for _, targets in sorted({
        ENTERING: (BROWSING, SEEKING_REFUND),
        BROWSING: (SEEKING_HELP, SEEKING_PAY, LEAVING),
        SEEKING_HELP: (BEING_HELPED, IN_HELP_QUEUE),
        IN_HELP_QUEUE: (BEING_HELPED, LEAVING),
        BEING_HELPED: (SEEKING_PAY, LEAVING),
        SEEKING_PAY: (PAYING, IN_PAY_QUEUE),
        IN_PAY_QUEUE: (PAYING, LEAVING),
        PAYING: (LEAVING,),
        SEEKING_REFUND: (REFUND_PROCESSING, IN_REFUND_QUEUE),
        IN_REFUND_QUEUE: (REFUND_PROCESSING, LEAVING),
        REFUND_PROCESSING: (BROWSING, LEAVING),
        LEAVING: (),
    }.items())
)


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
        self.state = ENTERING
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
        if not _ALLOWED[self.state] >> new_state & 1:
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

    The completion becomes the customer's pending event, so a day close
    can supersede it.
    """
    staff.begin(calendar.now)
    customer.serving_staff = staff
    customer.pending = calendar.schedule(calendar.now + duration, kind, customer)


_DEFAULT_WEIGHTS = {
    PURCHASE_COMPLETED: 2,
    HELP_RECEIVED: 1,
    REFUND_GRANTED: 2,
    HELP_QUEUE_ABANDONED: -2,
    PAY_QUEUE_ABANDONED: -3,
    REFUND_QUEUE_ABANDONED: -4,
    LEFT_WITHOUT_PURCHASE: 0,
}


@dataclass(frozen=True)
class SatisfactionWeights:
    """Integer weight per satisfaction event kind, a tuple indexed by event."""

    weights: tuple

    @classmethod
    def defaults(cls):
        return cls.from_mapping({})

    @classmethod
    def from_mapping(cls, mapping):
        """Build from {event-name: int}; unknown kinds or non-ints are errors."""
        merged = dict(_DEFAULT_WEIGHTS)
        by_name = {e.name.lower(): e for e in SatisfactionEvent}
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
        return cls(tuple(merged[e] for e in SatisfactionEvent))

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
    goal = REFUND if u < refund_goal_prob else PURCHASE
    return CustomerAgent(cid, goal, entered_at)
