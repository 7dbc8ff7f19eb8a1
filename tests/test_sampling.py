"""Triangular, Bernoulli, and interarrival samplers: exact points and properties.

A Bernoulli decision is the inline test `u < p` at its caller; its tests
drive the empowerment decision of `queueing.resolve_refund_path`.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import triangular_mean, triangular_variance
from test_agents import ConstantRng
from retailsim.config import ArrivalProfile, EmpowermentPolicy, TriangularParams
from retailsim.kernel import RngStream
from retailsim.queueing import resolve_refund_path
from retailsim.sampling import sample_interarrival, sample_triangular


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


def test_constant_duration_constructor():
    # low == mode == high is a fixed duration; every u samples it, as a float.
    const = TriangularParams(4.0, 4.0, 4.0)
    assert triangular_mean(const) == 4.0
    assert triangular_variance(const) == 0.0
    for u in (0.0, 0.3, 1.0 - 2**-53):
        x = sample_triangular(const, u)
        assert x == 4.0 and type(x) is float


def test_closed_form_mean_and_variance():
    tri = TriangularParams(1, 7, 15)
    assert triangular_mean(tri) == pytest.approx(23 / 3, abs=1e-12)
    assert triangular_variance(tri) == pytest.approx(74 / 9, abs=1e-12)


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


def test_triangular_left_branch_is_clamped_at_the_mode():
    # One float below the branch point left/span, the left branch's
    # low + sqrt(u * span * left) rounds to 15.170000000000002, above the
    # mode and above the next u's sample, the mode itself.
    tri = TriangularParams(4.44, 15.17, 20.7)
    u = 0.6599015990159901
    after = math.nextafter(u, 1.0)
    assert u * tri.span < tri.left <= after * tri.span
    assert sample_triangular(tri, u) == tri.mode == sample_triangular(tri, after)


@given(triangular_params(), st.floats(min_value=0.0, max_value=0.9999999))
def test_triangular_is_a_pure_function(tri, u):
    assert sample_triangular(tri, u) == sample_triangular(tri, u)


# -- Bernoulli ----------------------------------------------------------------


def empowered(p, u):
    """Whether a refund with empowerment probability p and decision draw u is empowered."""
    policy = EmpowermentPolicy(p)
    authorization = TriangularParams(1, 3, 6)
    _, overhead = resolve_refund_path(policy, authorization, 2.0, ConstantRng(u), ConstantRng(0.5))
    return overhead is None


def test_bernoulli_degenerate_probabilities():
    for u in (0.0, 0.17, 0.999999):
        assert empowered(0.0, u) is False
        assert empowered(1.0, u) is True


def test_bernoulli_threshold_is_strict():
    # Empowered iff u < p: a draw at p is referred, one just below it is not.
    assert empowered(0.5, 0.5) is False
    assert empowered(0.5, 0.49999999) is True
    assert empowered(0.5, math.nextafter(0.5, 0.0)) is True
    assert empowered(0.37, 0.1) is True
    assert empowered(0.0, 0.0) is False
    assert empowered(1.0, math.nextafter(1.0, 0.0)) is True


def test_bernoulli_frequency_tracks_binomial_error():
    stream = RngStream(7, "decisions")
    n = 100_000
    p = 0.37
    hits = sum(empowered(p, stream.uniform()) for _ in range(n))
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
