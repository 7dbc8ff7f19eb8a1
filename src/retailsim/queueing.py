"""FIFO service queues with reneging rules, skill matching, empowerment policy.

A queue holds the waiting `CustomerAgent`s themselves and its reneging rule.
Each queued customer's renege timer is the event whose calendar token it
holds as its pending event, so starting the customer's service, which
schedules a new pending event, supersedes the timer. A freed expert seller
takes the oldest help customer outright, a freed normal seller the oldest one
who does not need an expert, so service order is FIFO within each
compatibility class. `EmpowermentPolicy` is a config's [empowerment]
section; the manager's sign-off time is its `durations.manager_authorization`,
which the department passes to `resolve_refund_path` with the policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .sampling import sample_triangular


class ServiceQueue:
    """FIFO queue of waiting customers for one service, and its reneging rule.

    A customer waits at most a draw from `patience`, then reneges and is
    charged the `abandoned` event. The department appends to, pops from and
    clears `entries` itself; the two methods here are the scans that pick a
    customer out of the middle.
    """

    __slots__ = ("entries", "patience", "abandoned")

    def __init__(self, patience, abandoned):
        self.entries = deque()
        self.patience = patience
        self.abandoned = abandoned

    def pop_first_servable(self, can_serve_expert):
        """Oldest customer a staff member of this qualification may take.

        Experts may take anyone; a normal seller skips customers who need an
        expert but otherwise respects arrival order.
        """
        entries = self.entries
        if not entries:
            return None
        if can_serve_expert:
            return entries.popleft()
        for customer in entries:
            if not customer.needs_expert:
                entries.remove(customer)
                return customer
        return None

    def remove(self, customer):
        """Drop a reneging customer; ValueError if they are not queued."""
        self.entries.remove(customer)


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
    manager must sign off, costing an authorization time on top of the refund
    service. While hold_cashier_during_referral is true the cashier stays
    occupied through the wait and authorization; when false the cashier is
    released after the service portion and the customer alone waits for the
    manager.
    """

    p_empowered: float = 1.0
    hold_cashier_during_referral: bool = True
    empowered_duration_multiplier: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p_empowered <= 1.0):
            raise ValueError(
                f"empowerment.p_empowered must lie in [0, 1], got {self.p_empowered}"
            )
        if not self.empowered_duration_multiplier > 0:
            raise ValueError(
                f"empowerment.empowered_duration_multiplier must be > 0, "
                f"got {self.empowered_duration_multiplier}"
            )


def resolve_refund_path(policy, authorization, base_duration, decision_rng, service_rng):
    """Decide how a refund that just seized a cashier proceeds.

    Draws the empowerment decision, empowered iff the draw is below
    p_empowered (so 0 always refers and 1 never does), and, for referrals,
    the manager's time from the `authorization` duration. Returns
    (duration, overhead): the cashier's service time, and the manager's
    authorization time, which is None when the cashier settles the refund
    alone.
    """
    if decision_rng.uniform() < policy.p_empowered:
        return base_duration * policy.empowered_duration_multiplier, None
    return base_duration, sample_triangular(authorization, service_rng.uniform())
