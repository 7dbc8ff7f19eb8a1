"""Acceptance gate: ten checks, one printed verdict line each.

Each test prints `CRITERION nn PASS|FAIL <label>` on the real terminal
(bypassing capture) before asserting, so a full `pytest -v` run shows the
scoreboard even when everything passes.
"""

import hashlib
import math
import statistics

import numpy as np
import pytest
import scipy.stats

from retailsim.cli import main
from retailsim.config import TriangularParams
from retailsim.department import DepartmentSim, strict
from retailsim.experiments import save_results
from retailsim.kernel import RngStream
from retailsim.results import METRIC_FIELDS, load_results, results_to_cells
from retailsim.sampling import sample_triangular
from retailsim.stats import (
    anova_two_way,
    f_upper_tail,
    levene_test,
    studentized_range_upper_tail,
)

from test_department import scripted


def verdict(capsys, number, label, ok):
    with capsys.disabled():
        print(f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'} {label}")
    return ok


def cell_means(rows, metric):
    """{department: [mean per ascending level]} over the replications."""
    departments, _, data = results_to_cells(rows, metric)
    return {d: [statistics.fmean(cell) for cell in cells] for d, cells in zip(departments, data)}


def unimodal_or_plateau_peak(means):
    """Index of the first maximum if the series rises then falls, else None."""
    peak = max(range(len(means)), key=lambda i: means[i])
    rising = all(means[i] <= means[i + 1] for i in range(peak))
    falling = all(means[i] >= means[i + 1] for i in range(peak, len(means) - 1))
    return peak if rising and falling else None


# sha256 of the cashier sweep's stdout after its first line, which names the
# output path: the per-cell summary table of transactions.
GOLDEN_SWEEP_SUMMARY_SHA256 = "620b65a44e711a3e28b0be0cf8c300c0e2057ef0e29eee11d4f2535c2feaf959"


def test_criterion_01_sweep_determinism_and_runtime(cashier_sweep, capsys):
    # The first sweep is serial and the second runs at --jobs 2.
    (bytes_a, secs_a, _, out_a), (bytes_b, secs_b, _, out_b) = cashier_sweep
    summary_a = out_a.split("\n", 1)[1]
    summary_b = out_b.split("\n", 1)[1]
    ok = (
        bytes_a == bytes_b
        and len(bytes_a) > 0
        and secs_a <= 300
        and secs_b <= 300
        and summary_a == summary_b
        and hashlib.sha256(summary_a.encode()).hexdigest() == GOLDEN_SWEEP_SUMMARY_SHA256
    )
    assert verdict(
        capsys, 1,
        f"byte-identical 200-rep sweeps and summaries, serial and --jobs 2 "
        f"({secs_a:.0f}s, {secs_b:.0f}s)",
        ok,
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
    hits = sum(decisions.uniform() < 0.37 for _ in range(n))
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

    def _depart(self, customer):
        super()._depart(customer)
        self.final_states[customer.id] = customer.state


def test_criterion_03_statechart_conservation(atv_week, capsys):
    ok = True
    for seed in range(20):
        sim = RecordingSim(atv_week, seed=seed)
        m = sim.run(strict)
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
    sim = DepartmentSim(config, seed=0)
    sim.inject_arrival(5.0)
    m = sim.run(strict)
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
            - f_upper_tail(q * q / 2.0, 1.0, df)
        )
        <= 1e-4
        for q in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
        for df in (2, 5, 10, 30, 190)
    )
    ok = calibrated and tukey_t
    detail = ", ".join(f"{k} {v:.3f}" for k, v in rates.items())
    assert verdict(capsys, 8, f"null rejection rates ({detail}); tukey==t", ok)


def test_criterion_09_reporting_shape(cashier_sweep, capsys):
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


# sha256 of the two full sweeps at base seed 1, 20 replications per cell: the
# cashier sweep CSV written by the CLI and the empowerment sweep CSV. A change
# to the order of RNG draws, or to any float the model computes, moves them.
GOLDEN_SWEEP_SHA256 = {
    "cashiers": "aca82e9aa840bdb2a6f69ecf6ed2daf71229ff32a4c8848ea981e52e44ed8ab4",
    "empowerment": "53bdd6abab57ce790bac9f56fe08ad8a7f980a9055ec2723a2d4ed5dafb68fdf",
}


def test_sweep_csvs_match_golden_digests(cashier_sweep, empowerment_rows, tmp_path):
    empowerment_csv = tmp_path / "empowerment.csv"
    save_results(empowerment_rows, empowerment_csv)
    digests = {
        "cashiers": hashlib.sha256(cashier_sweep[0][0]).hexdigest(),
        "empowerment": hashlib.sha256(empowerment_csv.read_bytes()).hexdigest(),
    }
    assert digests == GOLDEN_SWEEP_SHA256


# sha256 of `retailsim analyze --metric M` output for every metric of the two
# sweeps above. The values were taken while the normal CDF still came from
# scipy, so they also hold the in-repo port to scipy's bits.
GOLDEN_ANALYSIS_SHA256 = {
    "cashiers": {
        "transactions":
            "a7fbed265cf08c5290e3aa6a9c60627a1cbc2758481fbd9979e2a61c7194b632",
        "satisfied_customers":
            "7632f6c5015cc96996cf7a566d4a59dc4fe2c05320d5a7342ddf0177d09e694a",
        "overall_satisfaction":
            "1d188e9d78ad44eabf2aea72d58e669f2c57951206d0aee0f5d632cca71acf60",
        "refund_satisfaction":
            "002790c498d99a2f66f7c10126d87f543248a0b95baba76ca8f87854f4dcdb05",
        "cashier_utilization":
            "cf0b6014deb4ebab09207eb5640b91e2a94e7d9f77309a14c8a8d602f12bf105",
        "seller_utilization":
            "8b9d7ea2cc008d4a4b5125375878571ec437167da1eb04ec2672918835a40c3c",
        "manager_utilization":
            "826ff68d59b5840a4b98a1492de20bbdccf3eaae72388a12d1bea88357c200cb",
        "customers_entered":
            "d6939ab169952323af96157d6c818af8a9e56fbea0eed5ffdc0a0b71b13bda8e",
        "customers_left":
            "66b15ff01b65d275fbf4c93c65f752278d4c2f70fa3835bae778a9a292cf1ad3",
        "abandoned_help":
            "965eb5e74d7d7a5f799290215e61c3cef00d684b29518fda7a3d5770dc775035",
        "abandoned_pay":
            "8e4ef45668a739c22e385e726679707149e7f4e3c746257a8db7b6b75079fd2e",
        "abandoned_refund":
            "96debe92386309d6ac15d149cae62846e6d972964b11523941fdf1aa61a4c076",
        "refunds_completed":
            "1418f855eca98dd5efafcc2f8cfc6603b200b7fffd11aa78bde9cb0be32aba43",
        "manager_authorizations":
            "e964b24daba5ddbe2a32f0652993c72e8f70358efae84aae6359bd47a9ec7e9e",
        "autonomous_refunds":
            "05b9e4b10f81d8121613b9bd0b2e2df746309a777c4525514945c041ef2beae2",
        "satisfaction_ledger_sum":
            "6c1daecd4d8307c8072414dadd14246bb0e5f219a60462bcd91dd8f691f5def2",
    },
    "empowerment": {
        "transactions":
            "658e28f3a56ffbdafb426f2ed3edba6025eab4bc41c9e7289d7d7f32016b3cc6",
        "satisfied_customers":
            "7efcb32a3de59b0817638c73f788bdafeefb5c2853143d1d16a2db38e7e9d242",
        "overall_satisfaction":
            "758d2a6eaefcf27fed20818ea42cd5ea169c650caa5a91e9f1f2e70c7ee56a72",
        "refund_satisfaction":
            "911e5ad93a3ec2ff43c0ba84a2e91e3edc2e5d38da57e14191bc729c63b4f53a",
        "cashier_utilization":
            "f369b6abc797642b7a08ffdaff3032a748533174e8e8cbde4ab68be46df78fe6",
        "seller_utilization":
            "ee1890332e831788c45312a549a1d0866e349c90f958b316102d8d9874129b6a",
        "manager_utilization":
            "e3504143146dfde6aace31b7232fbee057284f3cbaea7a25e552ea373b5717ae",
        "customers_entered":
            "93966752b7389dff2fa41e81a6c6b77132f297bb820ce1d874a2a929db477134",
        "customers_left":
            "b9e3d32f61c4a29b119847da32901b12aa96f8218aa823f61e0d4ab5a23ff096",
        "abandoned_help":
            "712e53f158b969640cc3202758119906c502b0fe3c5dcf486fabe5b7d50b86c0",
        "abandoned_pay":
            "21eecd84150b063274d786147a9ac242d45398252a268f328836253b8ebb7296",
        "abandoned_refund":
            "05d87d7ccef154a516b0012e295167808f3dde4972f7f00e59f4795d36570913",
        "refunds_completed":
            "5218342d709d138771323cc32a759041da92d781d90a9b1716adad60ec07ace6",
        "manager_authorizations":
            "e98c2e4abefff7b0f4a30f15eac2ea5962ed4ca50471d15e462c659646c020b7",
        "autonomous_refunds":
            "2afb15c5c6d666e719e66887bf9e045ffad723a4449b651af0201a7fe985786f",
        "satisfaction_ledger_sum":
            "7debe41998c2be34a234a93cbbbb40fbac876f4f1465014bb78a408e083715eb",
    },
}


def test_analysis_csvs_match_golden_digests(cashier_sweep, empowerment_rows, tmp_path):
    empowerment_csv = tmp_path / "empowerment.csv"
    save_results(empowerment_rows, empowerment_csv)
    inputs = {"cashiers": cashier_sweep[0][2], "empowerment": empowerment_csv}
    digests = {}
    for experiment, results in inputs.items():
        digests[experiment] = {}
        for metric in METRIC_FIELDS:
            out = tmp_path / f"{experiment}.{metric}.analysis.csv"
            argv = ["analyze", "--results", str(results), "--metric", metric]
            assert main(argv + ["--out", str(out)]) == 0
            digests[experiment][metric] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == GOLDEN_ANALYSIS_SHA256
