"""Sweep harness: seeding, staffing plans, result CSVs, and summaries."""

import concurrent.futures

import pytest

from retailsim import experiments, results
from retailsim.config import StaffingPlan
from retailsim.kernel import SimulationFault
from retailsim.experiments import (
    CASHIER_LEVELS,
    EMPOWERMENT_LEVELS,
    MAX_JOBS,
    cashier_fill_plan,
    derive_cell_seed,
    format_summary_table,
    run_sweep,
    save_results,
)
from retailsim.results import (
    METRIC_FIELDS,
    ResultRow,
    RunMetrics,
    csv_header,
    load_results,
    results_to_cells,
)


def mk_row(dept, level, rep, experiment="cashiers", **overrides):
    values = {name: 0 for name in METRIC_FIELDS}
    values.update(
        cashier_utilization=0.0, seller_utilization=0.0, manager_utilization=0.0
    )
    values.update(overrides)
    return ResultRow(experiment, dept, level, rep, seed=rep, metrics=RunMetrics(**values))


# -- seeding -----------------------------------------------------------------


def test_cell_seeds_are_stable_and_distinct():
    # Frozen values guard the derivation scheme against accidental change.
    assert derive_cell_seed(1, "A&TV", 1, 1) == 1334563051876975417
    assert derive_cell_seed(1, "WW", 0.25, 20) == 6358358915853593013
    seeds = {
        derive_cell_seed(1, dept, level, rep)
        for dept in ("A&TV", "WW")
        for level in CASHIER_LEVELS + EMPOWERMENT_LEVELS
        for rep in range(1, 21)
    }
    assert len(seeds) == 2 * 10 * 20
    assert all(0 <= s < 2**63 for s in seeds)


def test_cell_seed_distinguishes_int_from_float_level():
    assert derive_cell_seed(1, "A", 1, 1) != derive_cell_seed(1, "A", 1.0, 1)


# -- staffing plans -----------------------------------------------------------


def test_cashier_fill_plan_reallocates_fixed_headcount():
    assert cashier_fill_plan(1) == StaffingPlan(1, 7, 1, 1)
    assert cashier_fill_plan(5) == StaffingPlan(5, 3, 1, 1)
    assert cashier_fill_plan(8) == StaffingPlan(8, 0, 1, 1)
    for level in CASHIER_LEVELS:
        assert cashier_fill_plan(level).total() == 10


def test_cashier_fill_plan_rejects_impossible_counts():
    with pytest.raises(ValueError, match="cannot staff 9 cashiers"):
        cashier_fill_plan(9)
    with pytest.raises(ValueError, match="cannot staff 0 cashiers"):
        cashier_fill_plan(0)


def test_design_validation(atv_week):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_sweep("queueing", {"A": atv_week})
    with pytest.raises(ValueError, match="replications"):
        run_sweep("cashiers", {"A": atv_week}, replications=0)
    with pytest.raises(ValueError, match="at least one department"):
        run_sweep("cashiers", {})


# -- sweeps --------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_sweep(atv_week, ww_week):
    return run_sweep(
        "cashiers", {"A&TV": atv_week, "WW": ww_week}, replications=1, base_seed=1
    )


def test_sweep_shape_and_canonical_order(mini_sweep, atv_week, ww_week):
    assert len(mini_sweep) == 10
    expected = [
        ("cashiers", dept, level, 1, derive_cell_seed(1, dept, level, 1))
        for dept in ("A&TV", "WW")
        for level in CASHIER_LEVELS
    ]
    got = [(r.experiment, r.department, r.level, r.replication, r.seed) for r in mini_sweep]
    assert got == expected


def test_sweep_parallel_matches_serial(mini_sweep, atv_week, ww_week):
    parallel = run_sweep(
        "cashiers",
        {"A&TV": atv_week, "WW": ww_week},
        replications=1,
        base_seed=1,
        jobs=2,
    )
    assert parallel == mini_sweep


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.fixture()
def recording_executor(monkeypatch):
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return RecordingExecutor


def test_sweep_starts_no_more_workers_than_replications(
    recording_executor, mini_sweep, atv_week, ww_week
):
    rows = run_sweep(
        "cashiers", {"A&TV": atv_week, "WW": ww_week}, replications=1, jobs=MAX_JOBS
    )
    assert recording_executor.sizes == [10]
    assert rows == mini_sweep
    run_sweep("cashiers", {"A&TV": atv_week}, replications=1, jobs=3)
    assert recording_executor.sizes == [10, 3]


@pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1, 100_000])
def test_sweep_rejects_jobs_outside_the_bound(recording_executor, atv_week, jobs):
    with pytest.raises(ValueError, match=f"jobs must be between 1 and {MAX_JOBS}"):
        run_sweep("cashiers", {"A&TV": atv_week}, replications=1, jobs=jobs)
    assert recording_executor.sizes == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_fault_names_its_cell_and_seed(monkeypatch, atv_week, jobs):
    bad_seed = derive_cell_seed(1, "A&TV", 3, 2)
    original = experiments.run_replication

    def faulty(config, seed=None):
        if seed == bad_seed:
            # The cell's config carries the staffing its level simulates.
            assert config.staffing == cashier_fill_plan(3)
            raise RuntimeError("injected failure")
        return original(config, seed=seed)

    # Worker processes are forked, so they inherit the patched function.
    monkeypatch.setattr(experiments, "run_replication", faulty)
    with pytest.raises(SimulationFault) as excinfo:
        run_sweep("cashiers", {"A&TV": atv_week}, replications=2, jobs=jobs)
    assert str(excinfo.value) == (
        f"sweep cell department='A&TV' level=3 replication=2 seed={bad_seed}: "
        "injected failure"
    )


def test_sweep_rejects_unknown_experiment(atv_week):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_sweep("bogus", {"A&TV": atv_week})


def test_empowerment_sweep_uses_probability_levels(empowerment_rows):
    levels = sorted({r.level for r in empowerment_rows})
    assert tuple(levels) == EMPOWERMENT_LEVELS
    assert len(empowerment_rows) == 2 * 5 * 20
    # Fully referred cells never settle refunds autonomously and vice versa.
    for row in empowerment_rows:
        if row.level == 0.0:
            assert row.metrics.autonomous_refunds == 0
        if row.level == 1.0:
            assert row.metrics.manager_authorizations == 0


# -- CSV round trip ---------------------------------------------------------------


def test_csv_header_layout():
    header = csv_header()
    assert header[:5] == ["experiment", "department", "level", "replication", "seed"]
    assert tuple(header[5:]) == METRIC_FIELDS
    assert header[5:10] == [
        "transactions",
        "satisfied_customers",
        "overall_satisfaction",
        "refund_satisfaction",
        "cashier_utilization",
    ]


def test_results_csv_round_trip(mini_sweep, tmp_path):
    first = tmp_path / "first.csv"
    save_results(mini_sweep, first)
    loaded = load_results(first)
    assert loaded == mini_sweep
    second = tmp_path / "second.csv"
    save_results(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_load_results_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected results header"):
        load_results(path)


def test_load_results_rejects_short_rows(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(csv_header()) + "\ncashiers,A,1,1,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="wrong field count"):
        load_results(path)


def test_failed_write_leaves_the_existing_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "results.csv"
    save_results([mk_row("A", 1, 1)], path)
    before = path.read_bytes()

    # Fail inside the writer partway through the second row, once the header
    # and the first row have gone to the temporary file.
    format_value = results.format_value
    formatted = []

    def format_then_fail(value):
        if len(formatted) == len(csv_header()) + 7:
            raise OSError("disk full")
        formatted.append(value)
        return format_value(value)

    monkeypatch.setattr(results, "format_value", format_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_results([mk_row("B", 2, 1), mk_row("B", 2, 2)], path)
    assert formatted[:2] == ["cashiers", "B"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


def test_absent_utilization_round_trips_as_none(tmp_path):
    rows = [mk_row("A", 1, rep, cashier_utilization=None) for rep in (1, 2)]
    path = tmp_path / "none.csv"
    save_results(rows, path)
    assert load_results(path) == rows
    with pytest.raises(ValueError, match="absent for cell A/1"):
        format_summary_table(rows, "cashier_utilization")


# -- summaries ---------------------------------------------------------------------


def summary_fields(rows, metric):
    """The whitespace-split fields of each data line of the summary table."""
    return [line.split() for line in format_summary_table(rows, metric).splitlines()[1:]]


def test_summarize_mean_and_sd():
    rows = [
        mk_row("A", 1, 1, transactions=2),
        mk_row("A", 1, 2, transactions=4),
        mk_row("A", 2, 1, transactions=5),
        mk_row("A", 2, 2, transactions=5),
        mk_row("B", 2, 1, transactions=0),
        mk_row("B", 2, 2, transactions=10),
        mk_row("B", 1, 1, transactions=1),
        mk_row("B", 1, 2, transactions=1),
    ]
    header = format_summary_table(rows, "transactions").splitlines()[0]
    assert header.split() == ["department", "level", "n", "mean", "sd"]
    # Departments in first-seen order, levels ascending: the ANOVA's cell order.
    assert summary_fields(rows, "transactions") == [
        ["A", "1", "2", "3.00", "1.41"],  # sd sqrt(2)
        ["A", "2", "2", "5.00", "0.00"],
        ["B", "1", "2", "1.00", "0.00"],
        ["B", "2", "2", "5.00", "7.07"],  # sd sqrt(50)
    ]


def test_summarize_single_replication_has_no_sd():
    rows = [mk_row("A", 1, 1, transactions=7), mk_row("A", 2, 1, transactions=9)]
    lines = format_summary_table(rows, "transactions").splitlines()
    assert summary_fields(rows, "transactions") == [
        ["A", "1", "1", "7.00"],
        ["A", "2", "1", "9.00"],
    ]
    # The empty sd column is still padded to the header's width.
    assert {len(line) for line in lines} == {len(lines[0])}


def test_summarize_validation():
    with pytest.raises(ValueError, match="unknown metric 'bogus'"):
        format_summary_table([mk_row("A", 1, 1)], "bogus")
    with pytest.raises(ValueError, match="absent for cell A/2"):
        rows = [mk_row("A", 1, 1), mk_row("A", 2, 1, seller_utilization=None)]
        format_summary_table(rows, "seller_utilization")
    missing_b2 = [mk_row("A", 1, 1), mk_row("A", 2, 1), mk_row("B", 1, 1)]
    for rows in (missing_b2, []):
        with pytest.raises(ValueError, match="not a balanced department x level grid"):
            format_summary_table(rows, "transactions")


def test_format_summary_table_decimal_places():
    rows = [mk_row("A", 1, r, cashier_utilization=v) for r, v in ((1, 0.5), (2, 0.25))]
    assert summary_fields(rows, "cashier_utilization") == [["A", "1", "2", "0.3750", "0.1768"]]
    assert summary_fields(rows, "transactions") == [["A", "1", "2", "0.00", "0.00"]]


# -- ANOVA layout -------------------------------------------------------------------


def test_results_to_cells_orders_and_nests():
    rows = [
        mk_row(dept, level, rep, transactions=10 * (dept == "B") + level + rep)
        for dept in ("B", "A")
        for level in (2, 1)
        for rep in (1, 2)
    ]
    departments, levels, data = results_to_cells(rows, "transactions")
    assert departments == ["B", "A"]  # first-seen order
    assert levels == [1, 2]  # ascending
    assert data[0][0] == [12, 13]  # B, level 1
    assert data[1][1] == [3, 4]  # A, level 2


def test_results_to_cells_rejects_ragged_grid():
    rows = [
        mk_row("A", 1, 1),
        mk_row("A", 1, 2),
        mk_row("A", 2, 1),
    ]
    with pytest.raises(ValueError, match="not a balanced"):
        results_to_cells(rows, "transactions")
    with pytest.raises(ValueError, match="unknown metric"):
        results_to_cells(rows, "bogus")
