"""Stochastic primitives: triangular durations and arrivals.

The two samplers take their parameters from config records (a
`config.TriangularParams` or `config.ArrivalProfile`) and are pure functions
of (params, u) with u a uniform draw in [0, 1), so every random choice in the
simulator is reproducible from the named substreams in `kernel`. A yes/no
decision with probability p is the inline test `u < p` at its caller, so
p = 0 never fires and p = 1 always does.
"""

from __future__ import annotations

import math


def sample_triangular(params, u):
    """Inverse-CDF triangular sample; monotone in u, bounded by [low, high].

    A zero span needs no branch of its own: the second formula gives `high`,
    which is `low`, for every u.
    """
    span = params.span
    left = params.left
    mode = params.mode
    # Roundoff can land a hair on the wrong side of the mode near the branch
    # point, so each branch is clamped at it: that keeps samples monotone in u
    # and, since low <= mode <= high, inside the bounds.
    if u * span < left:
        x = params.low + math.sqrt(u * span * left)
        return mode if x > mode else x
    x = params.high - math.sqrt((1.0 - u) * span * params.right)
    return mode if x < mode else x


def sample_interarrival(profile, u):
    """Exponential gap in minutes for a rate per hour.

    Returns math.inf when the rate is 0: the caller should simply not
    schedule a next arrival.
    """
    rate = profile.rate_per_hour
    if rate == 0.0:
        return math.inf
    return -math.log1p(-u) * 60.0 / rate
