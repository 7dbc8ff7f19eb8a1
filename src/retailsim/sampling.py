"""Stochastic primitives: triangular durations, Bernoulli decisions, arrivals.

All samplers are pure functions of (params, u) with u a uniform draw in
[0, 1), so every random choice in the simulator is reproducible from the
named substreams in `kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TriangularParams:
    """Three-point duration estimate (minutes): low <= mode <= high.

    A zero-width distribution is only constructible through `constant`,
    so a config typo like min == max is caught at load time. `span`, `left`
    and `right` (high - low, mode - low, high - mode) are derived once here
    for the sampler.
    """

    low: float
    mode: float
    high: float
    span: float = field(init=False, repr=False, compare=False)
    left: float = field(init=False, repr=False, compare=False)
    right: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.low <= self.mode <= self.high):
            raise ValueError(
                f"triangular params must satisfy low <= mode <= high, "
                f"got ({self.low}, {self.mode}, {self.high})"
            )
        if self.low == self.high:
            raise ValueError(
                f"degenerate triangular (low == high == {self.low}); "
                f"use TriangularParams.constant() if a fixed duration is intended"
            )
        self._derive()

    def _derive(self):
        object.__setattr__(self, "span", self.high - self.low)
        object.__setattr__(self, "left", self.mode - self.low)
        object.__setattr__(self, "right", self.high - self.mode)

    @classmethod
    def constant(cls, value):
        """Explicit fixed-duration escape hatch (low == mode == high)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "low", float(value))
        object.__setattr__(obj, "mode", float(value))
        object.__setattr__(obj, "high", float(value))
        obj._derive()
        return obj

    def mean(self):
        return (self.low + self.mode + self.high) / 3.0

    def variance(self):
        a, m, b = self.low, self.mode, self.high
        return (a * a + m * m + b * b - a * m - a * b - m * b) / 18.0


@dataclass(frozen=True)
class DecisionProb:
    """Validated probability for a yes/no customer decision."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"probability must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ArrivalProfile:
    """Poisson arrival intensity; rate 0 means the door stays shut."""

    rate_per_hour: float

    def __post_init__(self):
        if self.rate_per_hour < 0:
            raise ValueError(f"arrival rate must be >= 0, got {self.rate_per_hour}")


def sample_triangular(params, u):
    """Inverse-CDF triangular sample; monotone in u, bounded by [low, high]."""
    span = params.span
    if span == 0.0:
        return params.low
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


def sample_bernoulli(p, u):
    """True iff u < p, so p = 0 never fires and p = 1 always does (u < 1)."""
    if isinstance(p, DecisionProb):
        p = p.p
    return u < p


def sample_interarrival(profile, u):
    """Exponential gap in minutes for a rate given per hour.

    Returns math.inf when the rate is 0: the caller should simply not
    schedule a next arrival.
    """
    rate = profile.rate_per_hour
    if rate == 0.0:
        return math.inf
    return -math.log1p(-u) * 60.0 / rate
