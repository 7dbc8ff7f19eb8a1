"""Triangular, Bernoulli, and interarrival samplers: exact points and properties."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from retailsim.kernel import RngStream
from retailsim.sampling import (
    ArrivalProfile,
    DecisionProb,
    TriangularParams,
    sample_bernoulli,
    sample_interarrival,
    sample_triangular,
)


def triangular_params():
    base = st.floats(min_value=-100.0, max_value=100.0)
    span = st.floats(min_value=1e-3, max_value=100.0)
    frac = st.floats(min_value=0.0, max_value=1.0)
    return st.builds(
        lambda low, width, f: TriangularParams(low, low + f * width, low + width),
        base,
        span,
        frac,
    )


# -- parameter validation -----------------------------------------------------


def test_triangular_rejects_min_above_mode():
    with pytest.raises(ValueError, match="mode"):
        TriangularParams(7, 1, 15)


def test_triangular_rejects_mode_above_max():
    with pytest.raises(ValueError, match="mode"):
        TriangularParams(1, 20, 15)


def test_triangular_rejects_degenerate_span():
    with pytest.raises(ValueError):
        TriangularParams(5, 5, 5)


def test_constant_duration_constructor():
    const = TriangularParams.constant(4.0)
    assert const.mean() == 4.0
    assert const.variance() == 0.0
    for u in (0.0, 0.3, 0.999999):
        assert sample_triangular(const, u) == 4.0


def test_closed_form_mean_and_variance():
    tri = TriangularParams(1, 7, 15)
    assert tri.mean() == pytest.approx(23 / 3, abs=1e-12)
    assert tri.variance() == pytest.approx(74 / 9, abs=1e-12)


def test_decision_prob_bounds():
    DecisionProb(0.0)
    DecisionProb(1.0)
    with pytest.raises(ValueError):
        DecisionProb(-0.01)
    with pytest.raises(ValueError):
        DecisionProb(1.01)


def test_arrival_profile_rejects_negative_rate():
    with pytest.raises(ValueError):
        ArrivalProfile(-1.0)


# -- triangular inverse CDF ---------------------------------------------------


def test_triangular_endpoints_and_mode():
    tri = TriangularParams(1, 7, 15)
    assert sample_triangular(tri, 0.0) == 1.0
    assert sample_triangular(tri, 1.0 - 1e-12) == pytest.approx(15.0, abs=1e-4)
    # At u = (mode-min)/(max-min) the inverse CDF lands exactly on the mode.
    assert sample_triangular(tri, 6 / 14) == 7.0


def test_triangular_quarter_point():
    tri = TriangularParams(1, 7, 15)
    # Left branch: min + sqrt(u * (max-min) * (mode-min)).
    assert sample_triangular(tri, 0.25) == pytest.approx(1 + math.sqrt(21), rel=1e-12)


@given(triangular_params(), st.floats(min_value=0.0, max_value=0.9999999))
def test_triangular_sample_stays_in_bounds(tri, u):
    x = sample_triangular(tri, u)
    assert tri.low <= x <= tri.high


@given(
    triangular_params(),
    st.floats(min_value=0.0, max_value=0.9999999),
    st.floats(min_value=0.0, max_value=0.9999999),
)
# A mode 1e-58 above low: the right branch just past the branch point rounds
# to 0.0, below the left branch's samples, unless it is clamped at the mode.
@example(TriangularParams(0.0, 1.9873191627848545e-58, 1.0), 6.2771e-131, 1.9873191627848545e-58)
def test_triangular_inverse_cdf_monotone_in_u(tri, u1, u2):
    if u1 > u2:
        u1, u2 = u2, u1
    assert sample_triangular(tri, u1) <= sample_triangular(tri, u2)


@given(triangular_params(), st.floats(min_value=0.0, max_value=0.9999999))
def test_triangular_is_a_pure_function(tri, u):
    assert sample_triangular(tri, u) == sample_triangular(tri, u)


# -- Bernoulli ----------------------------------------------------------------


def test_bernoulli_degenerate_probabilities():
    for u in (0.0, 0.17, 0.999999):
        assert sample_bernoulli(0.0, u) is False
        assert sample_bernoulli(1.0, u) is True


def test_bernoulli_threshold_is_strict():
    assert sample_bernoulli(0.5, 0.5) is False
    assert sample_bernoulli(0.5, 0.49999999) is True
    assert sample_bernoulli(DecisionProb(0.37), 0.1) is True


def test_bernoulli_frequency_tracks_binomial_error():
    stream = RngStream(7, "decisions")
    n = 100_000
    p = 0.37
    hits = sum(sample_bernoulli(p, stream.uniform()) for _ in range(n))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * se


# -- interarrival -------------------------------------------------------------


def test_interarrival_at_exponential_mean():
    profile = ArrivalProfile(60.0)
    u = 1.0 - math.exp(-1.0)
    assert sample_interarrival(profile, u) == pytest.approx(1.0, abs=1e-12)


def test_interarrival_zero_rate_signals_no_arrivals():
    assert sample_interarrival(ArrivalProfile(0.0), 0.5) == math.inf


def test_interarrival_monte_carlo_mean():
    profile = ArrivalProfile(30.0)  # one arrival every 2 minutes on average
    stream = RngStream(11, "arrivals")
    n = 10**6
    total = 0.0
    for _ in range(n):
        total += sample_interarrival(profile, stream.uniform())
    assert total / n == pytest.approx(2.0, abs=0.01)


@given(st.floats(min_value=0.0, max_value=0.9999999))
def test_interarrival_is_nonnegative_and_monotone(u):
    profile = ArrivalProfile(45.0)
    gap = sample_interarrival(profile, u)
    assert gap >= 0.0
    assert gap <= sample_interarrival(profile, min(u + 1e-7, 0.99999999))
