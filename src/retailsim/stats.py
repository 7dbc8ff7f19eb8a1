"""Inferential statistics for sweep results.

Balanced two-way fixed-effects ANOVA, mean-centered Levene, and Tukey HSD.
Tail probabilities are computed here rather than taken from a stats library:
the F tail via a continued-fraction regularized incomplete beta, and the
studentized-range tail via composite Gauss-Legendre quadrature over both the
scaled-chi axis and the normal-range axis. The test suite cross-checks both
routes against independent implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Incomplete beta and F / t tails

_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300


def _beta_contfrac(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if math.isnan(x):
        return math.nan
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def f_upper_tail(f, df1, df2):
    """P(F_{df1, df2} > f) for finite f >= 0; f == 0 gives 1."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError(f"degrees of freedom must be positive, got ({df1}, {df2})")
    if not math.isfinite(f):
        raise ValueError(f"F statistic must be finite, got {f}")
    if f < 0.0:
        raise ValueError(f"F statistic must be non-negative, got {f}")
    if f == 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


def t_two_sided_tail(t, df):
    """P(|T_df| > t); equals the F tail at t^2 with (1, df) df."""
    return f_upper_tail(t * t, 1.0, df)


# ---------------------------------------------------------------------------
# Two-way ANOVA


@dataclass(frozen=True)
class EffectTest:
    """One ANOVA table row; f and p are NaN when the table is degenerate."""

    name: str
    ss: float
    df: int
    ms: float
    f: float
    p: float


@dataclass(frozen=True)
class AnovaTable:
    factor_a: EffectTest
    factor_b: EffectTest
    interaction: EffectTest
    within: EffectTest
    ss_total: float
    degenerate: bool

    def effects(self):
        return (self.factor_a, self.factor_b, self.interaction)


def anova_two_way(data, factor_names=("A", "B")):
    """Balanced fixed-effects two-way ANOVA on an (a, b, n) array.

    data[i][j] holds the n replicate observations of cell (i, j); ragged or
    wrongly shaped input is rejected, which is what keeps the decomposition
    exact. A zero within-cell variance yields NaN F/p and degenerate=True
    instead of a division error.
    """
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(
            "data must be a balanced (a, b, n) layout; ragged cells are not supported"
        ) from None
    if arr.ndim != 3:
        raise ValueError(
            f"data must have shape (levels_a, levels_b, replicates), got {arr.shape}"
        )
    a, b, n = arr.shape
    if a < 2 or b < 2:
        raise ValueError(f"both factors need at least 2 levels, got ({a}, {b})")
    if n < 2:
        raise ValueError(f"need at least 2 replicates per cell, got {n}")

    cell = arr.mean(axis=2)
    row = cell.mean(axis=1)
    col = cell.mean(axis=0)
    grand = cell.mean()

    ss_a = float(b * n * np.sum((row - grand) ** 2))
    ss_b = float(a * n * np.sum((col - grand) ** 2))
    ss_ab = float(n * np.sum((cell - row[:, None] - col[None, :] + grand) ** 2))
    ss_within = float(np.sum((arr - cell[:, :, None]) ** 2))
    ss_total = float(np.sum((arr - grand) ** 2))

    df_a = a - 1
    df_b = b - 1
    df_ab = df_a * df_b
    df_within = a * b * (n - 1)

    ms_a = ss_a / df_a
    ms_b = ss_b / df_b
    ms_ab = ss_ab / df_ab
    ms_within = ss_within / df_within

    degenerate = ms_within == 0.0

    def effect(name, ss, df, ms):
        if degenerate:
            return EffectTest(name, ss, df, ms, math.nan, math.nan)
        f = ms / ms_within
        if math.isinf(f):  # overflow on a near-zero within MS
            return EffectTest(name, ss, df, ms, f, 0.0)
        return EffectTest(name, ss, df, ms, f, f_upper_tail(f, df, df_within))

    name_a, name_b = factor_names
    return AnovaTable(
        factor_a=effect(name_a, ss_a, df_a, ms_a),
        factor_b=effect(name_b, ss_b, df_b, ms_b),
        interaction=effect(f"{name_a} x {name_b}", ss_ab, df_ab, ms_ab),
        within=EffectTest("within", ss_within, df_within, ms_within, math.nan, math.nan),
        ss_total=ss_total,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Levene (mean-centered)


@dataclass(frozen=True)
class LeveneResult:
    w: float
    df1: int
    df2: int
    p: float
    degenerate: bool


def levene_test(groups):
    """Mean-centered Levene test of variance homogeneity across groups."""
    arrays = [np.asarray(g, dtype=float).ravel() for g in groups]
    k = len(arrays)
    if k < 2:
        raise ValueError(f"need at least 2 groups, got {k}")
    if any(len(g) < 2 for g in arrays):
        raise ValueError("every group needs at least 2 observations")
    big_n = sum(len(g) for g in arrays)
    z = [np.abs(g - g.mean()) for g in arrays]
    zbar_i = np.array([zi.mean() for zi in z])
    sizes = np.array([len(zi) for zi in z])
    zbar = float(np.concatenate(z).mean())
    numer = (big_n - k) * float(np.sum(sizes * (zbar_i - zbar) ** 2))
    denom = (k - 1) * float(sum(np.sum((zi - zm) ** 2) for zi, zm in zip(z, zbar_i)))
    df1 = k - 1
    df2 = big_n - k
    if all(float(np.max(zi, initial=0.0)) == 0.0 for zi in z):
        # Constant groups: no deviations at all, nothing to compare.
        return LeveneResult(math.nan, df1, df2, math.nan, True)
    if numer == 0.0:
        # Group deviation means identical: zero evidence against homogeneity,
        # even when the deviations have no within-group spread.
        return LeveneResult(0.0, df1, df2, 1.0, False)
    if denom == 0.0:
        return LeveneResult(math.nan, df1, df2, math.nan, True)
    w = numer / denom
    return LeveneResult(w, df1, df2, f_upper_tail(w, df1, df2), False)


# ---------------------------------------------------------------------------
# Studentized range and Tukey HSD

_GL_CACHE = {}


def _gl_panels(lo, hi, panels, order):
    """Gauss-Legendre nodes/weights for `panels` equal panels on [lo, hi]."""
    key = (round(lo, 12), round(hi, 12), panels, order)
    cached = _GL_CACHE.get(key)
    if cached is not None:
        return cached
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    xs = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    ws = (half[:, None] * base_w[None, :]).ravel()
    _GL_CACHE[key] = (xs, ws)
    return xs, ws


_Z_LIMIT = 9.0
_Z_PANELS = 12
_S_PANELS = 12
_GL_ORDER = 20


def _range_cdf_at(w, k):
    """P(range of k iid standard normals <= w) for an array of widths w."""
    # Imported on first use: scipy.special roughly doubles the CLI's import
    # time, and only `analyze` reaches this.
    from scipy.special import ndtr

    zs, zw = _gl_panels(-_Z_LIMIT, _Z_LIMIT, _Z_PANELS, _GL_ORDER)
    phi_w = zw * np.exp(-0.5 * zs * zs) / math.sqrt(2.0 * math.pi)
    inner = ndtr(zs)[None, :] - ndtr(zs[None, :] - w[:, None])
    np.clip(inner, 0.0, 1.0, out=inner)
    return k * (inner ** (k - 1) @ phi_w)


def studentized_range_upper_tail(q, k, df):
    """P(Q_{k, df} > q) by double Gauss-Legendre integration.

    Outer integral runs over the scaled-chi variable s = sqrt(chi2_df / df)
    on a window wide enough that the truncated density mass is < 1e-12;
    the inner integral is the normal-range CDF at width q*s.
    """
    if k < 2:
        raise ValueError(f"studentized range needs k >= 2 groups, got {k}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(q):
        return math.nan
    if q <= 0.0:
        return 1.0
    if math.isinf(q):
        return 0.0
    spread = 12.0 / math.sqrt(2.0 * df)
    lo = max(0.0, 1.0 - spread)
    hi = 1.0 + spread
    ss, sw = _gl_panels(lo, hi, _S_PANELS, _GL_ORDER)
    # log density of s, exponentiated per node: stays finite for any df
    # because the peak log-density cancels inside the exp.
    ln_c = (df / 2.0) * math.log(df) + (1.0 - df / 2.0) * math.log(2.0) - math.lgamma(
        df / 2.0
    )
    dens = np.exp(ln_c + (df - 1.0) * np.log(ss) - df * ss * ss / 2.0)
    cdf = float(np.dot(sw * dens, _range_cdf_at(q * ss, k)))
    return min(max(1.0 - cdf, 0.0), 1.0)


@dataclass(frozen=True)
class TukeyResult:
    group_i: int
    group_j: int
    mean_i: float
    mean_j: float
    diff: float
    q_stat: float
    p_value: float
    significant: bool


def tukey_hsd(means, n_per_group, ms_within, df_within, alpha=0.05):
    """All-pairs Tukey HSD given cell means and the ANOVA error term.

    q = |mean_i - mean_j| / sqrt(ms_within / n); p from the studentized
    range with k = len(means) groups and the ANOVA within df.
    """
    k = len(means)
    if k < 2:
        raise ValueError(f"need at least 2 group means, got {k}")
    if n_per_group < 1:
        raise ValueError(f"n_per_group must be >= 1, got {n_per_group}")
    if not (ms_within > 0):
        raise ValueError(
            f"ms_within must be positive for Tukey HSD, got {ms_within} "
            f"(degenerate ANOVA has no error term)"
        )
    se = math.sqrt(ms_within / n_per_group)
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            diff = float(means[j]) - float(means[i])
            q = abs(diff) / se
            p = studentized_range_upper_tail(q, k, df_within)
            out.append(
                TukeyResult(
                    group_i=i,
                    group_j=j,
                    mean_i=float(means[i]),
                    mean_j=float(means[j]),
                    diff=diff,
                    q_stat=q,
                    p_value=p,
                    significant=p < alpha,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Streaming summaries


class RunningStat:
    """Welford accumulator: numerically stable single-pass mean and sd."""

    __slots__ = ("n", "mean", "_m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def sd(self):
        """Sample standard deviation (n - 1); None below 2 observations."""
        if self.n < 2:
            return None
        return math.sqrt(self._m2 / (self.n - 1))
