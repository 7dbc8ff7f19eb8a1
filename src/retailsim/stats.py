"""Inferential statistics for sweep results.

Balanced two-way fixed-effects ANOVA, mean-centered Levene, and Tukey HSD.
Tails are computed here, not taken from a stats library: the F tail of both
tests by a continued-fraction incomplete beta, 0 at an infinite F or W (as
scipy's `f.sf`), and the studentized range by composite Gauss-Legendre
quadrature over the scaled-chi and normal-range axes. The normal CDF inside that
integral is a port of the Cephes `ndtr` (Moshier, *Methods and Programs for
Mathematical Functions*, 1989) that returns the C routine's bits, so the
package needs numpy alone; its exp is the C library's, taken for a whole
array in one C loop by numpy's complex exp. The Gauss-Legendre base rule is
a table of literals, not an eigensolve, and each axis's nodes are computed
once per process (the scaled-chi axis's once per df). The inner integral is
summed one panel of widths at a time into one vector, with no
widths-by-nodes matrix held, and the result has the bits of the
whole-matrix evaluation. Where ndtr(z - w) lies below half a float spacing
of ndtr(z) (Mills ratio), it is not evaluated, because the difference
rounds back to ndtr(z). The test suite cross-checks every route against
independent implementations, scipy's among them.

Each function that computes on arrays imports numpy itself, so importing this
module does not: the CLI imports it for every command, and `validate`,
`--help` and usage errors need no numpy. The results are `records.Record`s,
and of the package this module imports `records` alone.
"""

from __future__ import annotations

import functools
import math

from .records import Record


# ---------------------------------------------------------------------------
# Incomplete beta and the F tail

_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300


def _beta_contfrac(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # The even step's coefficient, then the odd step's.
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
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
    """P(F_{df1, df2} > f) for f >= 0, as scipy's f.sf: 1 at 0, 0 at inf, NaN at NaN."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError(f"degrees of freedom must be positive, got ({df1}, {df2})")
    if f < 0.0:
        raise ValueError(f"F statistic must be non-negative, got {f}")
    if f == 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


# ---------------------------------------------------------------------------
# Two-way ANOVA


class EffectTest(Record):
    """One ANOVA table row; f and p are NaN when the table is degenerate."""

    name: str
    ss: float
    df: int
    ms: float
    f: float
    p: float


class AnovaTable(Record):
    """Two-way ANOVA: both main effects, their interaction and the error term."""

    factor_a: EffectTest
    factor_b: EffectTest
    interaction: EffectTest
    within: EffectTest
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
    import numpy as np
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
        return EffectTest(name, ss, df, ms, f, f_upper_tail(f, df, df_within))

    name_a, name_b = factor_names
    return AnovaTable(
        factor_a=effect(name_a, ss_a, df_a, ms_a),
        factor_b=effect(name_b, ss_b, df_b, ms_b),
        interaction=effect(f"{name_a} x {name_b}", ss_ab, df_ab, ms_ab),
        within=EffectTest("within", ss_within, df_within, ms_within, math.nan, math.nan),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Levene (mean-centered)


class LeveneResult(Record):
    """Levene statistic W on (df1, df2); W and p are NaN when the test is degenerate."""

    w: float
    df1: int
    df2: int
    p: float
    degenerate: bool


def levene_test(groups):
    """Mean-centered Levene test of variance homogeneity across groups."""
    import numpy as np
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
# Normal CDF: Cephes ndtr, erf and erfc
#
# The same rational approximations as the C routines, evaluated in the same
# operand order, with exp taken from the C library (see _exp): numpy's float
# exp can differ from it in the last bit, and so would the CDF.

_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX); exp(-x*x) underflows past it

# erfc(x) = exp(-x*x) P(x) / Q(x) for 1 <= x < 8; Q's leading 1 is written out.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# erfc(x) = exp(-x*x) R(x) / S(x) for x >= 8; S's leading 1 is written out.
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) = x T(x*x) / U(x*x) for |x| <= 1; U's leading 1 is written out.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x, coef):
    """Horner's rule over coef, highest power first (Cephes polevl).

    Runs in place on one array; each step is still (ans * x) + c.
    """
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _erf_inner(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _exp(x):
    """exp of a float array with the C library's bits, as math.exp returns them.

    numpy's float exp is its own SIMD routine and differs from the C library
    in the last bit on some arguments. Its complex exp calls the C library's
    cexp in one C loop, and cexp(x + 0i) is exp(x) * 1, which is exp(x).
    """
    import numpy as np
    return np.exp(x.astype(complex)).real


def _ndtr(a):
    """Standard normal CDF of an array, bit for bit the Cephes `ndtr`.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) where |x| < sqrt(1/2), otherwise
    h = erfc(|x|) / 2, and 1 - h where x > 0. erfc is 1 - erf below 1, the
    P/Q or R/S ratio times exp(-x*x) up to sqrt(MAXLOG), and 0 beyond. The
    exp of all those tail elements is one call of _exp.
    """
    import numpy as np
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRTH
    z = np.abs(x)
    with np.errstate(over="ignore"):  # an infinite z*z lands on the 0 branch
        zz = z * z
    # h starts at 0, its value where exp(-z*z) underflows; NaN stays NaN.
    h = np.where(np.isnan(z), np.nan, 0.0)
    mid = (z >= _SQRTH) & (z < 1.0)
    h[mid] = 0.5 * (1.0 - _erf_inner(z[mid]))
    tail = np.flatnonzero((z >= 1.0) & (zz <= _MAXLOG))
    zt = z[tail]
    expo = _exp(-zz[tail])
    for part, num, den in ((zt < 8.0, _ERFC_P, _ERFC_Q), (zt >= 8.0, _ERFC_R, _ERFC_S)):
        zp = zt[part]
        h[tail[part]] = 0.5 * (expo[part] * _polevl(zp, num) / _polevl(zp, den))
    y = np.where(x > 0.0, 1.0 - h, h)
    small = z < _SQRTH
    y[small] = 0.5 + 0.5 * _erf_inner(x[small])
    return y.reshape(a.shape)


# ---------------------------------------------------------------------------
# Studentized range and Tukey HSD

# The order-20 Gauss-Legendre rule on [-1, 1] as numpy's leggauss(20) returns
# it. The rule is symmetric, so only its positive nodes and their weights are
# listed.
_GL_HALF_NODES = (
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
    0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
)
_GL_HALF_WEIGHTS = (
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
    0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
)
_GL_ORDER = 2 * len(_GL_HALF_NODES)


def _gl_panels(lo, hi, panels):
    """Gauss-Legendre nodes/weights for `panels` equal panels on [lo, hi]."""
    import numpy as np
    base_x = np.array([-x for x in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
    base_w = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    xs = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    ws = (half[:, None] * base_w[None, :]).ravel()
    return xs, ws


_Z_LIMIT = 9.0
_Z_PANELS = 12
_S_PANELS = 12


@functools.cache
def _z_nodes():
    """Normal-axis nodes, their weights times the normal density, ndtr there, and cuts.

    cut[i] is the a below which ndtr(a) cannot move ndtr_zs[i] - ndtr(a) off
    ndtr_zs[i]. With ndtr_zs[i] in [2^(e-1), 2^e) and a < -sqrt(2 (61 - e) ln 2),
    ndtr(a) < exp(-a^2/2) < 2^(e-61) (Mills ratio, |a| > 9), which is 64 times
    below half the float spacing under ndtr_zs[i], so the difference rounds
    back to ndtr_zs[i].
    """
    import numpy as np
    zs, zw = _gl_panels(-_Z_LIMIT, _Z_LIMIT, _Z_PANELS)
    phi_w = zw * np.exp(-0.5 * zs * zs) / math.sqrt(2.0 * math.pi)
    ndtr_zs = _ndtr(zs)
    ln2 = math.log(2.0)
    exponents = [math.frexp(v)[1] for v in ndtr_zs.tolist()]
    cut = np.array([-math.sqrt(2.0 * (61 - e) * ln2) for e in exponents])
    return zs, phi_w, ndtr_zs, cut


def _range_cdf_at(w, k):
    """P(range of k iid standard normals <= w) for an array of widths w.

    w holds whole panels of _GL_ORDER widths, and reshape refuses any other
    length. Each panel's ndtr(z) - ndtr(z - w) at the normal-axis nodes is
    clipped, raised to k - 1 and summed against the node weights in one
    panel-sized buffer, so no (len(w), len(zs)) matrix is held and the
    temporaries inside _ndtr stay cache-sized. Where z - w lies below the
    node's cut (see _z_nodes), the difference is ndtr(z) to the bit, so _ndtr
    runs on the other elements only, and not at all for a panel that has
    none; in the cashier sweep's tails that skips about a third of them.
    Every step is elementwise except the product, which numpy computes row
    by row with the bits of the whole-matrix product.
    """
    import numpy as np
    zs, phi_w, ndtr_zs, cut = _z_nodes()
    rows = np.empty((_GL_ORDER, zs.size))
    live = np.empty(rows.shape, dtype=bool)
    sums = []
    for panel in w.reshape(-1, _GL_ORDER):
        np.subtract(zs, panel[:, None], out=rows)  # the arguments a = z - w
        np.greater_equal(rows, cut, out=live)
        args = rows[live]
        rows[...] = ndtr_zs
        if args.size:
            rows[live] -= _ndtr(args)
        np.clip(rows, 0.0, 1.0, out=rows)
        rows **= k - 1
        sums.append(rows @ phi_w)
    return k * np.concatenate(sums)


@functools.cache
def _s_nodes(df):
    """Scaled-chi nodes at df and their weights times the density of s there.

    Every tail at one df integrates over these same nodes.
    """
    import numpy as np
    spread = 12.0 / math.sqrt(2.0 * df)
    lo = max(0.0, 1.0 - spread)
    hi = 1.0 + spread
    ss, sw = _gl_panels(lo, hi, _S_PANELS)
    # log density of s, exponentiated per node: stays finite for any df
    # because the peak log-density cancels inside the exp.
    ln_c = (df / 2.0) * math.log(df) + (1.0 - df / 2.0) * math.log(2.0) - math.lgamma(
        df / 2.0
    )
    dens = np.exp(ln_c + (df - 1.0) * np.log(ss) - df * ss * ss / 2.0)
    s_w = sw * dens
    ss.flags.writeable = s_w.flags.writeable = False  # every caller gets these arrays
    return ss, s_w


def studentized_range_upper_tail(q, k, df):
    """P(Q_{k, df} > q) by double Gauss-Legendre integration.

    Outer integral runs over the scaled-chi variable s = sqrt(chi2_df / df)
    on a window wide enough that the truncated density mass is < 1e-12;
    the inner integral is the normal-range CDF at width q*s.
    """
    import numpy as np
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
    ss, s_w = _s_nodes(df)
    cdf = float(np.dot(s_w, _range_cdf_at(q * ss, k)))
    return min(max(1.0 - cdf, 0.0), 1.0)


# The significance level of Tukey's pairs and of `analyze`'s Levene note.
ALPHA = 0.05


class TukeyResult(Record):
    """One Tukey HSD pair: mean of group j minus mean of group i, its q and p."""

    group_i: int
    group_j: int
    diff: float
    q_stat: float
    p_value: float
    significant: bool


def tukey_hsd(means, n_per_group, ms_within, df_within):
    """All-pairs Tukey HSD from cell means and the ANOVA error term.

    q = |mean_i - mean_j| / sqrt(ms_within / n), the roots divided if that quotient
    underflows; p from the studentized range, k = len(means), on the ANOVA within df.
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
    se = math.sqrt(ms_within / n_per_group) or math.sqrt(ms_within) / math.sqrt(n_per_group)
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
                    diff=diff,
                    q_stat=q,
                    p_value=p,
                    significant=p < ALPHA,
                )
            )
    return out
