"""Customer and staff agents, the customer statechart, satisfaction events.

Customers and staff are passive records: the department's event handlers
drive customers and seize staff. The statechart here only polices that each
transition is legal, so a handler bug surfaces as an IllegalTransition naming
both states instead of silently corrupting counters. The event that made the
move is named by the handler running it, which the kernel's fault message and
a trace both report. A customer holds only what some handler reads back: the
staff member serving them, and through a manager's authorization the cashier
their refund holds. Why they came in (to buy or to return an item) is decided
by the arrival handler's branch and not stored; a queued customer is its own
queue entry.
"""

from __future__ import annotations

import enum


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
        "state",
        "satisfaction",
        "needs_expert",
        "pending",
        "serving_staff",
        "held_cashier",
        "refund_base",
    )

    def __init__(self, cid):
        self.id = cid
        self.state = ENTERING
        self.satisfaction = 0
        self.needs_expert = False
        self.pending = None
        self.serving_staff = None
        self.held_cashier = None
        self.refund_base = 0.0

    def transition(self, new_state):
        if not _ALLOWED[self.state] >> new_state & 1:
            raise IllegalTransition(
                f"customer {self.id}: illegal transition {self.state.name} -> {new_state.name}"
            )
        self.state = new_state

    def __repr__(self):
        return (
            f"CustomerAgent(id={self.id}, state={self.state.name}, "
            f"satisfaction={self.satisfaction})"
        )


class StaffAgent:
    """One staff member, idle while busy_since is None; busy_minutes accrues at finish."""

    __slots__ = ("id", "role", "busy_minutes", "busy_since")

    def __init__(self, sid, role):
        self.id = sid
        self.role = role
        self.busy_minutes = 0.0
        self.busy_since = None

    def begin(self, now):
        if self.busy_since is not None:
            raise RuntimeError(f"staff {self.id} ({self.role.name}) is not idle")
        self.busy_since = now

    def finish(self, now):
        if self.busy_since is None:
            raise RuntimeError(f"staff {self.id} ({self.role.name}) is not busy")
        self.busy_minutes += now - self.busy_since
        self.busy_since = None

    def __repr__(self):
        return (
            f"StaffAgent(id={self.id}, role={self.role.name}, "
            f"busy={self.busy_since is not None})"
        )

