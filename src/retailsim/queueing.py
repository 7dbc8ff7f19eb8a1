"""FIFO service queues with reneging hooks, skill matching, empowerment policy.

Queue entries are live; each queued customer's renege timer is the event
whose calendar token it holds as its pending event, so claiming the customer
for service only has to clear that token.
Help entries carry a needs-expert flag: a freed expert seller takes the oldest
entry outright, a freed normal seller takes the oldest entry it is qualified
for, so service order is FIFO within each compatibility class.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .sampling import TriangularParams, sample_bernoulli, sample_triangular


class QueueKind(enum.Enum):
    HELP = "help"
    PAY = "pay"
    REFUND = "refund"


class QueueEntry:
    """One waiting customer."""

    __slots__ = ("customer", "enqueued_at", "needs_expert")

    def __init__(self, customer, enqueued_at, needs_expert=False):
        self.customer = customer
        self.enqueued_at = enqueued_at
        self.needs_expert = needs_expert


class ServiceQueue:
    """FIFO queue for one service kind."""

    __slots__ = ("kind", "entries")

    def __init__(self, kind):
        self.kind = kind
        self.entries = deque()

    def __len__(self):
        return len(self.entries)

    def push(self, entry):
        self.entries.append(entry)

    def pop_head(self):
        """Oldest entry, or None when empty."""
        if self.entries:
            return self.entries.popleft()
        return None

    def pop_first_servable(self, can_serve_expert):
        """Oldest entry a staff member of the given qualification may take.

        Experts may take anything; a normal seller skips entries flagged
        needs_expert but otherwise respects arrival order.
        """
        entries = self.entries
        if not entries:
            return None
        if can_serve_expert:
            return entries.popleft()
        for entry in entries:
            if not entry.needs_expert:
                entries.remove(entry)
                return entry
        return None

    def remove(self, entry):
        """Drop a specific entry (renege or day close); True if it was present."""
        try:
            self.entries.remove(entry)
            return True
        except ValueError:
            return False

    def drain(self):
        """Remove all entries (day close)."""
        self.entries.clear()


def find_idle(staff_list):
    """First idle member (lowest id, lists are id-ordered), or None."""
    for staff in staff_list:
        if not staff.busy:
            return staff
    return None


@dataclass(frozen=True)
class EmpowermentPolicy:
    """How refunds are authorized.

    With probability p_empowered the serving cashier settles the refund alone
    (duration scaled by empowered_duration_multiplier); otherwise a section
    manager must sign off, costing manager_overhead on top of the refund
    service. While hold_cashier_during_referral is true the cashier stays
    occupied through the wait and authorization; when false the cashier is
    released after the service portion and the customer alone waits for the
    manager.
    """

    p_empowered: float
    manager_overhead: TriangularParams
    hold_cashier_during_referral: bool = True
    empowered_duration_multiplier: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p_empowered <= 1.0):
            raise ValueError(f"p_empowered must lie in [0, 1], got {self.p_empowered}")
        if self.empowered_duration_multiplier <= 0:
            raise ValueError(
                f"empowered_duration_multiplier must be > 0, "
                f"got {self.empowered_duration_multiplier}"
            )


def resolve_refund_path(policy, base_duration, decision_rng, service_rng):
    """Decide how a refund that just seized a cashier proceeds.

    Draws the empowerment decision and, for referrals, the authorization
    overhead. Returns (duration, overhead): the cashier's service time, and
    the manager's authorization time, which is None when the cashier settles
    the refund alone.
    """
    if sample_bernoulli(policy.p_empowered, decision_rng.uniform()):
        return base_duration * policy.empowered_duration_multiplier, None
    return base_duration, sample_triangular(policy.manager_overhead, service_rng.uniform())
