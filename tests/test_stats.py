"""Inferential statistics against closed forms and independent oracles."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from retailsim import stats
from retailsim.stats import (
    _GL_HALF_NODES,
    _MAXLOG,
    _gl_panels,
    _ndtr,
    _range_cdf_at,
    _z_nodes,
    anova_two_way,
    f_upper_tail,
    levene_test,
    regularized_incomplete_beta,
    studentized_range_upper_tail,
    tukey_hsd,
)

WORKED = [[[1.0, 3.0], [2.0, 4.0]], [[5.0, 7.0], [6.0, 8.0]]]


# -- F tail ---------------------------------------------------------------------


def test_f_tail_matches_scipy_on_a_grid():
    for f in (0.1, 0.5, 1.0, 2.0, 4.0, 16.0, 50.0):
        for df1, df2 in ((1, 4), (1, 190), (3, 10), (4, 190), (10, 3), (2, 2)):
            ours = f_upper_tail(f, df1, df2)
            assert ours == pytest.approx(scipy.stats.f.sf(f, df1, df2), abs=1e-12)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
def test_f_tail_reciprocal_identity(f, df1, df2):
    # P(F_{d1,d2} > f) = P(F_{d2,d1} < 1/f)
    assert f_upper_tail(f, df1, df2) == pytest.approx(
        1.0 - f_upper_tail(1.0 / f, df2, df1), abs=1e-10
    )


def test_f_tail_edges_and_validation():
    assert f_upper_tail(0.0, 3, 7) == 1.0
    assert f_upper_tail(1e6, 4, 190) < 1e-12
    with pytest.raises(ValueError, match="must be finite"):
        f_upper_tail(math.inf, 1, 1)
    with pytest.raises(ValueError, match="must be finite"):
        f_upper_tail(math.nan, 1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        f_upper_tail(-0.5, 1, 1)
    with pytest.raises(ValueError, match="degrees of freedom"):
        f_upper_tail(1.0, 0, 5)


def test_f_tail_monotone_decreasing():
    ps = [f_upper_tail(f, 4, 190) for f in (0.0, 0.5, 1.0, 2.0, 8.0, 32.0)]
    assert ps == sorted(ps, reverse=True)


def test_t_identity_matches_scipy():
    for t in (0.5, 1.0, 2.0, 3.5):
        for df in (1, 4, 30, 190):
            assert f_upper_tail(t * t, 1.0, df) == pytest.approx(
                2.0 * scipy.stats.t.sf(t, df), abs=1e-12
            )


def test_incomplete_beta_matches_scipy():
    for a, b in ((0.5, 0.5), (2.0, 95.0), (5.0, 1.0)):
        for x in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                scipy.stats.beta.cdf(x, a, b), abs=1e-13
            )


# -- two-way ANOVA -----------------------------------------------------------------


def test_worked_example_decomposition_is_exact():
    table = anova_two_way(WORKED, ("department", "level"))
    assert table.factor_a.ss == 32.0
    assert table.factor_b.ss == 2.0
    assert table.interaction.ss == 0.0
    assert table.within.ss == 8.0
    grand = sum(x for dept in WORKED for cell in dept for x in cell) / 8
    ss_total = sum((x - grand) ** 2 for dept in WORKED for cell in dept for x in cell)
    assert ss_total == 42.0
    assert (
        table.factor_a.ss + table.factor_b.ss + table.interaction.ss + table.within.ss
        == ss_total
    )
    assert (table.factor_a.df, table.factor_b.df) == (1, 1)
    assert (table.interaction.df, table.within.df) == (1, 4)
    assert table.factor_a.f == pytest.approx(16.0, rel=1e-9)
    assert table.factor_a.p == pytest.approx(scipy.stats.f.sf(16.0, 1, 4), abs=1e-12)
    assert table.factor_b.f == pytest.approx(1.0, rel=1e-12)
    assert table.interaction.f == 0.0
    assert table.interaction.p == 1.0
    assert table.interaction.name == "department x level"
    assert not table.degenerate


def test_anova_matches_scipy_f_oneway_reduction():
    # Collapsing factor B must line up with scipy's one-way F on factor A
    # when B has no effect; easier is a direct scipy two-way via f_oneway
    # per effect, so use a full cross-check against statistic formulas.
    rng = np.random.default_rng(11)
    data = rng.normal(size=(3, 4, 6)) + rng.normal(size=(3, 1, 1)) * 2.0
    table = anova_two_way(data)
    # Oracle: classic mean-based formulas computed independently.
    grand = data.mean()
    row = data.mean(axis=(1, 2))
    col = data.mean(axis=(0, 2))
    cell = data.mean(axis=2)
    a, b, n = data.shape
    ss_a = b * n * ((row - grand) ** 2).sum()
    ss_b = a * n * ((col - grand) ** 2).sum()
    ss_ab = n * ((cell - row[:, None] - col[None, :] + grand) ** 2).sum()
    ss_w = ((data - cell[:, :, None]) ** 2).sum()
    assert table.factor_a.ss == pytest.approx(ss_a, rel=1e-12)
    assert table.factor_b.ss == pytest.approx(ss_b, rel=1e-12)
    assert table.interaction.ss == pytest.approx(ss_ab, rel=1e-12)
    assert table.within.ss == pytest.approx(ss_w, rel=1e-12)
    f_a = (ss_a / (a - 1)) / (ss_w / (a * b * (n - 1)))
    assert table.factor_a.f == pytest.approx(f_a, rel=1e-12)
    assert table.factor_a.p == pytest.approx(
        scipy.stats.f.sf(f_a, a - 1, a * b * (n - 1)), abs=1e-12
    )


def test_anova_translation_invariance():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(2, 5, 20))
    base = anova_two_way(data)
    moved = anova_two_way(data + 1000.0)
    for eff, eff2 in zip(base.effects(), moved.effects()):
        assert eff2.f == pytest.approx(eff.f, rel=1e-9)


def test_anova_power_of_two_scale_leaves_f_bitwise_identical():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(2, 5, 20))
    base = anova_two_way(data)
    scaled = anova_two_way(data * 2.0)
    for eff, eff2 in zip(base.effects(), scaled.effects()):
        assert eff2.f == eff.f
        assert eff2.p == eff.p


def test_anova_degenerate_when_cells_are_constant():
    table = anova_two_way([[[1.0, 1.0], [2.0, 2.0]], [[3.0, 3.0], [4.0, 4.0]]])
    assert table.degenerate
    assert math.isnan(table.factor_a.f)
    assert math.isnan(table.factor_a.p)
    assert table.factor_a.ss > 0  # sums of squares still reported


def test_anova_validation():
    with pytest.raises(ValueError, match="balanced"):
        anova_two_way([[[1.0, 2.0], [3.0]], [[4.0, 5.0], [6.0, 7.0]]])
    with pytest.raises(ValueError, match="shape"):
        anova_two_way([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="at least 2 levels"):
        anova_two_way([[[1.0, 2.0], [3.0, 4.0]]])
    with pytest.raises(ValueError, match="at least 2 replicates"):
        anova_two_way([[[1.0], [2.0]], [[3.0], [4.0]]])


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=8),
)
def test_anova_decomposition_identity(seed, a, b, n):
    data = np.random.default_rng(seed).normal(size=(a, b, n)) * 3.0 + 1.0
    table = anova_two_way(data)
    parts = (
        table.factor_a.ss + table.factor_b.ss + table.interaction.ss + table.within.ss
    )
    ss_total = float(np.sum((data - data.mean()) ** 2))
    assert parts == pytest.approx(ss_total, rel=1e-9, abs=1e-9)
    for eff in table.effects():
        assert eff.ss >= 0.0
        if not table.degenerate:
            assert eff.f >= 0.0
            assert 0.0 <= eff.p <= 1.0


# -- Levene ---------------------------------------------------------------------------


def test_levene_zero_spread_between_groups_accepts_homogeneity():
    result = levene_test([[0.0, 2.0], [10.0, 12.0]])
    assert result.w == 0.0
    assert result.p == 1.0
    assert not result.degenerate
    assert (result.df1, result.df2) == (1, 2)


def test_levene_constant_groups_are_degenerate():
    result = levene_test([[5.0, 5.0], [5.0, 5.0]])
    assert result.degenerate
    assert math.isnan(result.w)
    assert math.isnan(result.p)


def test_levene_zero_denominator_is_degenerate():
    result = levene_test([[0.0, 0.0], [0.0, 2.0]])
    assert result.degenerate
    assert math.isnan(result.w)


def test_levene_matches_scipy():
    rng = np.random.default_rng(3)
    groups = [rng.normal(size=17), rng.normal(scale=2.5, size=23), rng.normal(size=9)]
    result = levene_test(groups)
    stat, p = scipy.stats.levene(*groups, center="mean")
    assert result.w == pytest.approx(stat, rel=1e-10)
    assert result.p == pytest.approx(p, rel=1e-9)
    assert (result.df1, result.df2) == (2, 17 + 23 + 9 - 3)


def test_levene_power_of_two_scale_is_exact():
    rng = np.random.default_rng(4)
    groups = [rng.normal(size=8), rng.normal(size=8)]
    base = levene_test(groups)
    scaled = levene_test([g * 2.0 for g in groups])
    assert scaled.w == base.w
    assert scaled.p == base.p


def test_levene_validation():
    with pytest.raises(ValueError, match="at least 2 groups"):
        levene_test([[1.0, 2.0]])
    with pytest.raises(ValueError, match="at least 2 observations"):
        levene_test([[1.0, 2.0], [3.0]])


# -- studentized range ------------------------------------------------------------------


def _with_neighbours(points, ulps=3):
    """Each point and its `ulps` nearest floats on either side."""
    out = []
    for p in points:
        lo = hi = p
        out.append(p)
        for _ in range(ulps):
            lo = np.nextafter(lo, -np.inf)
            hi = np.nextafter(hi, np.inf)
            out += [lo, hi]
    return out


def test_ndtr_port_is_bitwise_scipy_ndtr():
    underflow = math.sqrt(2.0 * _MAXLOG)  # beyond it exp(-x*x/2) underflows
    branch_points = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), underflow]
    edges = _with_neighbours(branch_points + [-p for p in branch_points])
    edges += [-0.0, 5e-324, -5e-324, 1e-300, -1e300, 1e308, -1e308]
    edges += [math.inf, -math.inf, math.nan]
    random = np.random.default_rng(20260).uniform(-40.0, 40.0, 1_000_000)
    for points in (np.array(edges), random, random.reshape(1000, 1000)):
        ours = _ndtr(points)
        oracle = scipy.special.ndtr(points)
        assert ours.shape == points.shape
        mismatched = ours.view(np.int64) != oracle.view(np.int64)
        assert not mismatched.any(), points[mismatched][:10]


def _range_cdf_one_shot(w, k):
    """The range CDF with the whole (len(w), len(zs)) matrix built at once."""
    zs, phi_w, ndtr_zs, _ = _z_nodes()
    inner = ndtr_zs[None, :] - _ndtr(zs[None, :] - w[:, None])
    np.clip(inner, 0.0, 1.0, out=inner)
    return k * (inner ** (k - 1) @ phi_w)


@pytest.mark.parametrize("size", [1, 7, 20, 21, 40, 41, 240, 241])
def test_blocked_range_cdf_is_bitwise_the_one_shot_reference(size):
    # 20 widths per panel, and the one caller passes 12 whole panels: sizes
    # 20, 40 and 240 must give the whole-matrix bits, and a partial last
    # panel (1, 7, 21, 41, 241) is refused.
    w = np.random.default_rng(size).uniform(0.0, 12.0, size)
    edges = [0.0, 40.0, 1e-3]  # zero width, saturated, nearly zero
    w[: len(edges)] = edges[:size]
    if size % 20:
        with pytest.raises(ValueError, match="reshape"):
            _range_cdf_at(w, 5)
        return
    for k in (2, 5, 10):
        blocked = _range_cdf_at(w, k)
        reference = _range_cdf_one_shot(w, k)
        assert blocked.shape == (size,)
        assert np.array_equal(blocked.view(np.int64), reference.view(np.int64)), k


def tail_widths(monkeypatch, qs, df):
    """The widths studentized_range_upper_tail(q, k, df) passes _range_cdf_at, over qs."""
    widths = []
    real = stats._range_cdf_at

    def spy(w, k):
        widths.append(w.copy())
        return real(w, k)

    with monkeypatch.context() as patch:
        patch.setattr(stats, "_range_cdf_at", spy)
        for q in qs:
            studentized_range_upper_tail(q, 2, df)
    return np.concatenate(widths)


def widths_on_the_cuts(ulps):
    """Per node i, z_i - cut_i and its `ulps` nearest floats on either side."""
    zs, _, _, cut = _z_nodes()
    return np.array(_with_neighbours(zs - cut, ulps))


def whole_panels(w):
    """w padded with zero widths to whole panels of 20."""
    return np.concatenate((w, np.zeros(-w.size % 20)))


@pytest.mark.parametrize("df", [5, 20, 190, 1000])
def test_skipping_ndtr_below_the_cuts_keeps_every_bit(monkeypatch, df):
    # Widths from real tails, q * s up to 2,000 (saturated), plus widths
    # that put z - w on both sides of every node's cut.
    s_max = tail_widths(monkeypatch, [1.0], df).max()
    qs = [0.2, 1.0, 2.5, 4.0, 6.0, 10.0, 40.0, 2000.0 / s_max]
    widths = tail_widths(monkeypatch, qs, df)
    assert widths.max() == pytest.approx(2000.0)
    widths = whole_panels(np.concatenate((widths, widths_on_the_cuts(2))))
    for k in (2, 5, 10):
        for chunk in widths.reshape(-1, 240):
            skipped = _range_cdf_at(chunk, k)
            reference = _range_cdf_one_shot(chunk, k)
            assert np.array_equal(skipped.view(np.int64), reference.view(np.int64)), k


def test_range_cdf_evaluates_ndtr_exactly_at_and_above_each_cut(monkeypatch):
    zs, _, _, cut = _z_nodes()
    w = whole_panels(widths_on_the_cuts(3))
    a = zs - w[:, None]
    assert (a == cut).any(axis=0).sum() > 100  # many nodes get an element right on the cut
    passed = []
    real = stats._ndtr
    monkeypatch.setattr(stats, "_ndtr", lambda x: passed.append(x.copy()) or real(x))
    _range_cdf_at(w, 5)
    assert np.array_equal(np.concatenate(passed), a[a >= cut])


def test_below_each_cut_the_difference_rounds_back_to_ndtr_z():
    # The rule the skip rests on: for a < cut_i, ndtr(a) is under half a
    # float spacing of ndtr(z_i), so ndtr(z_i) - ndtr(a) == ndtr(z_i).
    zs, _, ndtr_zs, cut = _z_nodes()
    assert -13.1 < cut.min() and cut.max() < -9.1
    below = np.concatenate(([0.0], np.geomspace(1e-12, 30.0, 64)))
    for i in range(zs.size):
        a = np.append(np.nextafter(cut[i], -np.inf) - below, -np.inf)
        assert (ndtr_zs[i] - _ndtr(a) == ndtr_zs[i]).all(), i


def test_gauss_legendre_literals_are_numpys_rule():
    xs, ws = _gl_panels(-1.0, 1.0, 1)
    ref_x, ref_w = np.polynomial.legendre.leggauss(2 * len(_GL_HALF_NODES))
    for ours, ref in ((xs, ref_x), (ws, ref_w)):
        assert np.all(np.abs(ours - ref) <= np.spacing(np.abs(ref)))


def test_range_tail_does_not_depend_on_earlier_calls():
    # Windows of df = 10**9 and 10**9 + 1 differ by less than 1e-12.
    def tail_after(*dfs):
        code = (
            "from retailsim.stats import studentized_range_upper_tail as tail\n"
            f"print(repr([tail(4.0, 5, df) for df in {dfs!r}][-1]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert tail_after(10**9 + 1) == tail_after(10**9, 10**9 + 1)


def test_studentized_range_edges_and_validation():
    assert studentized_range_upper_tail(0.0, 5, 10) == 1.0
    assert studentized_range_upper_tail(-1.0, 5, 10) == 1.0
    assert studentized_range_upper_tail(math.inf, 5, 10) == 0.0
    assert math.isnan(studentized_range_upper_tail(math.nan, 5, 10))
    with pytest.raises(ValueError, match="k >= 2"):
        studentized_range_upper_tail(1.0, 1, 10)
    with pytest.raises(ValueError, match=">= 1"):
        studentized_range_upper_tail(1.0, 3, 0)


def test_studentized_range_matches_scipy_grid():
    for q in (0.5, 2.0, 3.5, 5.0):
        for k in (2, 3, 5, 10):
            for df in (2, 10, 190):
                ours = studentized_range_upper_tail(q, k, df)
                oracle = scipy.stats.studentized_range.sf(q, k, df)
                assert ours == pytest.approx(oracle, abs=1e-4)


def test_studentized_range_k2_reduces_to_two_sided_t():
    for q in (0.5, 1.0, 2.5, 4.0):
        for df in (3, 30, 190):
            assert studentized_range_upper_tail(q, 2, df) == pytest.approx(
                f_upper_tail(q * q / 2.0, 1.0, df), abs=1e-10
            )


def test_studentized_range_monotone_in_q():
    ps = [studentized_range_upper_tail(q, 5, 190) for q in (0.0, 1.0, 2.0, 3.0, 4.5)]
    assert ps == sorted(ps, reverse=True)


# -- Tukey HSD ------------------------------------------------------------------------------


def test_tukey_identical_means_not_significant():
    results = tukey_hsd([10.0, 10.0, 10.0], 20, 1.0, 57)
    assert len(results) == 3
    for r in results:
        assert r.q_stat == 0.0
        assert r.p_value == 1.0
        assert not r.significant
        assert r.diff == 0.0


def test_tukey_pair_layout_and_arithmetic():
    results = tukey_hsd([0.0, 1.0, 3.0], 4, 4.0, 30)
    assert [(r.group_i, r.group_j) for r in results] == [(0, 1), (0, 2), (1, 2)]
    r01 = results[0]
    assert r01.diff == 1.0
    assert r01.q_stat == 1.0  # se = sqrt(4/4) = 1
    assert r01.p_value == pytest.approx(
        scipy.stats.studentized_range.sf(1.0, 3, 30), abs=1e-6
    )
    r02 = results[1]
    assert r02.q_stat == 3.0
    assert r02.p_value < r01.p_value


def test_tukey_integer_location_shift_is_exact():
    base = tukey_hsd([1.0, 4.0, 6.0], 10, 2.0, 27)
    moved = tukey_hsd([101.0, 104.0, 106.0], 10, 2.0, 27)
    for r, r2 in zip(base, moved):
        assert r2.diff == r.diff
        assert r2.q_stat == r.q_stat
        assert r2.p_value == r.p_value


def test_tukey_validation():
    with pytest.raises(ValueError, match="at least 2 group means"):
        tukey_hsd([1.0], 5, 1.0, 10)
    with pytest.raises(ValueError, match="degenerate"):
        tukey_hsd([1.0, 2.0], 5, 0.0, 10)
    with pytest.raises(ValueError, match="n_per_group"):
        tukey_hsd([1.0, 2.0], 0, 1.0, 10)


def test_tukey_familywise_error_calibrated():
    # Null one-way layout with the sweep's shape: k = 5 groups, 39 obs each,
    # df = 190. The chance of any false positive should sit near alpha.
    k, n, reps = 5, 39, 10_000
    rng = np.random.default_rng(2026)
    data = rng.normal(size=(reps, k, n))
    means = data.mean(axis=2)
    ms_within = data.var(axis=2, ddof=1).mean(axis=1)
    spread = means.max(axis=1) - means.min(axis=1)
    q_stat = spread / np.sqrt(ms_within / n)
    lo, hi = 1.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if studentized_range_upper_tail(mid, k, k * (n - 1)) > 0.05:
            lo = mid
        else:
            hi = mid
    q_crit = (lo + hi) / 2.0
    rate = float(np.mean(q_stat > q_crit))
    assert 0.04 <= rate <= 0.06


def test_anova_table_effects_accessor():
    table = anova_two_way(WORKED)
    assert [e.name for e in table.effects()] == ["A", "B", "A x B"]
