"""Acceptance gate: ten checks, one printed verdict line each.

Each test prints `CRITERION nn PASS|FAIL <label>` on the real terminal
(bypassing capture) before asserting, so a full `pytest -v` run shows the
scoreboard even when everything passes.
"""

import math

import numpy as np
import pytest
import scipy.stats

from retailsim.department import DepartmentSim
from retailsim.experiments import load_results, results_to_cells, summarize
from retailsim.kernel import RngStream
from retailsim.sampling import TriangularParams, sample_bernoulli, sample_triangular
from retailsim.stats import (
    anova_two_way,
    f_upper_tail,
    levene_test,
    studentized_range_upper_tail,
    t_two_sided_tail,
)

from test_department import scripted


def verdict(capsys, number, label, ok):
    with capsys.disabled():
        print(f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'} {label}")
    return ok


def cell_means(rows, metric):
    """{department: [mean per ascending level]} over the replications."""
    summaries = summarize(rows, metric)
    out = {}
    for s in sorted(summaries, key=lambda s: (s.department, s.level)):
        out.setdefault(s.department, []).append(s.mean)
    return out


def unimodal_or_plateau_peak(means):
    """Index of the first maximum if the series rises then falls, else None."""
    peak = max(range(len(means)), key=lambda i: means[i])
    rising = all(means[i] <= means[i + 1] for i in range(peak))
    falling = all(means[i] >= means[i + 1] for i in range(peak, len(means) - 1))
    return peak if rising and falling else None


def test_criterion_01_sweep_determinism_and_runtime(cashier_sweep, capsys):
    (bytes_a, secs_a, _), (bytes_b, secs_b, _) = cashier_sweep
    ok = bytes_a == bytes_b and len(bytes_a) > 0 and secs_a <= 300 and secs_b <= 300
    assert verdict(
        capsys, 1, f"byte-identical 200-rep sweeps ({secs_a:.0f}s, {secs_b:.0f}s)", ok
    )


def test_criterion_02_sampler_monte_carlo(capsys):
    tri = TriangularParams(1.0, 7.0, 15.0)
    stream = RngStream(2026, "service")
    n = 10**6
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        x = sample_triangular(tri, stream.uniform())
        total += x
        total_sq += x * x
    mean = total / n
    var = total_sq / n - mean * mean
    decisions = RngStream(2026, "decisions")
    hits = sum(sample_bernoulli(0.37, decisions.uniform()) for _ in range(n))
    freq = hits / n
    ok = (
        abs(mean - 23.0 / 3.0) <= 0.02
        and abs(var - 74.0 / 9.0) <= 0.02 * (74.0 / 9.0)
        and abs(freq - 0.37) <= 0.002
    )
    assert verdict(
        capsys,
        2,
        f"triangular mean {mean:.4f}, var {var:.4f}, bernoulli {freq:.4f}",
        ok,
    )


class RecordingSim(DepartmentSim):
    """Tracks each customer's terminal state for the conservation check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.final_states = {}

    def _depart(self, customer, trigger):
        super()._depart(customer, trigger)
        self.final_states[customer.id] = customer.state


def test_criterion_03_statechart_conservation(atv_week, capsys):
    ok = True
    for seed in range(20):
        sim = RecordingSim(atv_week, seed=seed, strict=True)
        m = sim.run()
        terminal = set(s.name for s in sim.final_states.values())
        ok = ok and (
            terminal == {"LEAVING"}
            and len(sim.final_states) == m.customers_entered == m.customers_left
            and m.overall_satisfaction == m.satisfaction_ledger_sum
        )
    assert verdict(capsys, 3, "all customers end in LEAVING; ledgers reconcile", ok)


@pytest.fixture(scope="session")
def cashier_rows(cashier_sweep):
    return load_results(cashier_sweep[0][2])


def test_criterion_04_cashier_curve_shape(cashier_rows, capsys):
    means = cell_means(cashier_rows, "transactions")
    peaks = {dept: unimodal_or_plateau_peak(m) for dept, m in means.items()}
    atv = means["A&TV"]
    ok = (
        set(means) == {"A&TV", "WW"}
        and all(p is not None and p >= 2 for p in peaks.values())  # level 3, 4, or 5
        and atv[0] < atv[1] < atv[2]  # strict rise 1 -> 3
        and atv[4] <= atv[3]  # no gain 4 -> 5
    )
    detail = ", ".join(
        f"{d}: " + "/".join(f"{v:.0f}" for v in m) for d, m in sorted(means.items())
    )
    assert verdict(capsys, 4, f"transactions peak inside 3..5 ({detail})", ok)


def test_criterion_05_department_contrast(cashier_rows, capsys):
    means = cell_means(cashier_rows, "transactions")
    ok = all(ww > atv for atv, ww in zip(means["A&TV"], means["WW"]))
    assert verdict(capsys, 5, "WW out-sells A&TV at every cashier level", ok)


def test_criterion_06_refund_penalty(capsys):
    config = scripted(refund_goal=1.0, cashiers=0, managers=0, patience=3)
    sim = DepartmentSim(config, seed=0, strict=True)
    sim.inject_arrival(5.0)
    m = sim.run()
    ok = (
        m.overall_satisfaction == -4
        and m.refund_satisfaction == -4
        and m.abandoned_refund == 1
        and m.customers_entered == 1
    )
    assert verdict(capsys, 6, "lone refund customer facing no cashier scores -4", ok)


def test_criterion_07_anova_oracle(capsys):
    table = anova_two_way([[[1.0, 3.0], [2.0, 4.0]], [[5.0, 7.0], [6.0, 8.0]]])
    p = f_upper_tail(16.0, 1, 4)
    t_oracle = 2.0 * scipy.stats.t.sf(4.0, 4)
    ok = (
        (table.factor_a.ss, table.factor_b.ss) == (32.0, 2.0)
        and (table.interaction.ss, table.within.ss) == (0.0, 8.0)
        and abs(table.factor_a.f - 16.0) <= 1e-9
        and abs(p - 0.01613) <= 1e-4
        and abs(p - t_oracle) <= 1e-4
    )
    assert verdict(capsys, 7, f"worked example exact; p(16; 1, 4) = {p:.5f}", ok)


def test_criterion_08_null_calibration(capsys):
    # Classical mean-centered Levene runs liberal when groups are small
    # (its size is ~0.063 at n=20); n=80 per cell restores nominal level.
    reps, a, b, n = 10_000, 2, 5, 80
    rng = np.random.default_rng(99)
    datasets = rng.normal(size=(reps, a, b, n))
    hits = {"A": 0, "B": 0, "A x B": 0, "levene": 0}
    for data in datasets:
        table = anova_two_way(data)
        for eff in table.effects():
            hits[eff.name] += eff.p < 0.05
        lev = levene_test(data.reshape(a * b, n))
        hits["levene"] += lev.p < 0.05
    rates = {k: v / reps for k, v in hits.items()}
    calibrated = all(abs(r - 0.05) <= 0.01 for r in rates.values())

    tukey_t = all(
        abs(
            studentized_range_upper_tail(q, 2, df)
            - t_two_sided_tail(q / math.sqrt(2.0), df)
        )
        <= 1e-4
        for q in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
        for df in (2, 5, 10, 30, 190)
    )
    ok = calibrated and tukey_t
    detail = ", ".join(f"{k} {v:.3f}" for k, v in rates.items())
    assert verdict(capsys, 8, f"null rejection rates ({detail}); tukey==t", ok)


def test_criterion_09_reporting_shape(cashier_sweep, capsys):
    from retailsim.cli import main

    rc = main(["analyze", "--results", str(cashier_sweep[0][2])])
    out = capsys.readouterr().out
    ok = rc == 0 and "F(1, 190)" in out and "F(4, 190)" in out
    assert verdict(capsys, 9, "analyze reports F(1, 190) and F(4, 190)", ok)


def test_criterion_10_empowerment_mechanics(empowerment_rows, capsys):
    full = [r for r in empowerment_rows if r.level == 1.0]
    none = [r for r in empowerment_rows if r.level == 0.0]
    no_auth_when_empowered = all(r.metrics.manager_authorizations == 0 for r in full)
    one_auth_per_refund = all(
        r.metrics.manager_authorizations == r.metrics.refunds_completed for r in none
    )
    util = cell_means(
        [r for r in empowerment_rows if r.department == "A&TV"], "cashier_utilization"
    )["A&TV"]
    monotone = all(util[i] <= util[i + 1] for i in range(len(util) - 1))
    ok = no_auth_when_empowered and one_auth_per_refund and monotone
    assert verdict(
        capsys,
        10,
        "empowerment: no referrals at p=1, 1:1 at p=0, utilization monotone",
        ok,
    )
