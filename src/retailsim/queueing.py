"""FIFO service queues with reneging rules and skill matching; refund paths.

A queue holds the waiting `CustomerAgent`s themselves and the event charged
to one who reneges; every queue's wait is a draw from `durations.patience`.
Each queued customer's renege timer is the event whose calendar token it
holds as its pending event, so starting the customer's service, which
schedules a new pending event, supersedes the timer. A freed expert seller
takes the oldest help customer outright, a freed normal seller the oldest one
who does not need an expert, so service order is FIFO within each
compatibility class. The department passes a config's [empowerment] policy
and its `durations.manager_authorization` to `resolve_refund_path`.
"""

from __future__ import annotations

from collections import deque

from .sampling import sample_triangular


class ServiceQueue:
    """FIFO queue of waiting customers for one service, and what reneging costs.

    A customer waits at most a draw from the config's `durations.patience`,
    the same for every queue, then reneges and is charged the `abandoned`
    event. The department appends to, pops from and clears `entries` itself;
    the two methods here are the scans that pick a customer out of the middle.
    """

    __slots__ = ("entries", "abandoned")

    def __init__(self, abandoned):
        self.entries = deque()
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
