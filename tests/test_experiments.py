"""Sweep harness: seeding, staffing plans, result CSVs, and summaries."""

import concurrent.futures
import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from retailsim import experiments, kernel, results
from retailsim.cli import main
from retailsim.config import StaffingPlan
from retailsim.kernel import SimulationFault
from retailsim.experiments import (
    CASHIER_LEVELS,
    EMPOWERMENT_LEVELS,
    MAX_JOBS,
    MAX_REPLICATIONS,
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

from conftest import shorten


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


def test_parallel_sweep_workers_start_warm(monkeypatch, atv_config):
    # A worker forked before the parent built the RNG's refill table would
    # find the table's cache empty at its first cell and build its own.
    original = experiments.run_replication

    def warm_only(config, seed=None):
        if kernel.refill_table.cache_info().currsize == 0:
            raise RuntimeError("worker started without the refill table")
        return original(config, seed=seed)

    kernel.refill_table.cache_clear()
    # Worker processes are forked, so they inherit the patched function.
    monkeypatch.setattr(experiments, "run_replication", warm_only)
    rows = run_sweep("cashiers", {"A&TV": shorten(atv_config, days=1)}, replications=2, jobs=2)
    assert [(r.level, r.replication) for r in rows] == [
        (level, rep) for level in CASHIER_LEVELS for rep in (1, 2)
    ]


def test_parallel_sweep_workers_leave_ctrl_c_to_the_parent(monkeypatch, atv_config):
    # An idle worker that took Ctrl-C would print a traceback of its own.
    monkeypatch.setattr(experiments, "run_replication",
                        lambda config, seed=None: signal.getsignal(signal.SIGINT))
    rows = run_sweep("cashiers", {"A&TV": atv_config}, replications=1, jobs=2)
    assert {row.metrics for row in rows} == {signal.SIG_IGN}


@pytest.fixture()
def default_start_method(request):
    """The platform's default start method is `request.param`, forkserver by default."""
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(getattr(request, "param", "forkserver"), force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


def test_parallel_sweep_forks_whatever_the_default_start_method(
    default_start_method, monkeypatch, atv_config
):
    # Linux's default from Python 3.14 is forkserver, whose workers import
    # the module afresh and would run the real cell.
    monkeypatch.setattr(experiments, "run_replication", lambda config, seed=None: "forked")
    rows = run_sweep("cashiers", {"A&TV": atv_config}, replications=1, jobs=2)
    assert {row.metrics for row in rows} == {"forked"}


@pytest.mark.parametrize("default_start_method", ["forkserver", "spawn"], indirect=True)
def test_parallel_sweep_bytes_do_not_depend_on_the_start_method(
    default_start_method, monkeypatch, atv_config, tmp_path
):
    # Where the platform cannot fork, the pool takes the default start method.
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    configs = {"A&TV": shorten(atv_config, days=1)}
    save_results(run_sweep("cashiers", configs, replications=2), tmp_path / "serial.csv")
    save_results(run_sweep("cashiers", configs, replications=2, jobs=2), tmp_path / "pool.csv")
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes = []

    def __init__(self, max_workers, **options):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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


@pytest.mark.parametrize("replications", [0, MAX_REPLICATIONS + 1, 10**9])
def test_sweep_rejects_replications_outside_the_bound(monkeypatch, atv_week, replications):
    # Refused before any cell's seed is hashed, so no task list is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep task was built")

    monkeypatch.setattr(experiments, "derive_cell_seed", refuse)
    monkeypatch.setattr(experiments, "run_replication", refuse)
    match = f"replications must be between 1 and {MAX_REPLICATIONS}, got {replications}"
    with pytest.raises(ValueError, match=match):
        run_sweep("cashiers", {"A&TV": atv_week}, replications=replications)


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


def test_a_fault_stops_the_pool_before_the_cells_not_yet_started(
    monkeypatch, atv_config, tmp_path
):
    # Each cell that starts appends a byte to the log. The first cell fails
    # at once and every other cell sleeps first, so a pool that cancels the
    # cells not yet started after a fault runs only a few of the 20.
    log = tmp_path / "started"
    bad_seed = derive_cell_seed(1, "A&TV", 1, 1)
    original = experiments.run_replication

    def logged(config, seed=None):
        with open(log, "ab") as fh:
            fh.write(b".")
        if seed == bad_seed:
            raise RuntimeError("injected failure")
        time.sleep(0.2)
        return original(config, seed=seed)

    # Worker processes are forked, so they inherit the patched function.
    monkeypatch.setattr(experiments, "run_replication", logged)
    with pytest.raises(SimulationFault) as excinfo:
        run_sweep("cashiers", {"A&TV": shorten(atv_config, days=1)}, replications=4, jobs=2)
    assert str(excinfo.value) == (
        f"sweep cell department='A&TV' level=1 replication=1 seed={bad_seed}: "
        "injected failure"
    )
    assert log.stat().st_size <= 10  # of the 20 cells


def test_parallel_sweep_of_one_day_matches_serial(atv_config, ww_config):
    # Each worker simulates the config its constructors rebuilt from the pickle.
    configs = {c.label: shorten(c, days=1) for c in (atv_config, ww_config)}
    serial = run_sweep("empowerment", configs, replications=2)
    assert run_sweep("empowerment", configs, replications=2, jobs=2) == serial


def created_here(path):
    """Whether this call, the first to try, created the file `path`."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def killing_cells(monkeypatch, cashiers, once=None):
    """Make each cell with `cashiers` cashiers kill its process; if `once`, the first only.

    `once` is the path that the first such cell creates. Worker processes
    are forked, so they inherit the patched function.
    """
    original = experiments.run_replication

    def killer(config, seed=None):
        if config.staffing.cashiers == cashiers and (once is None or created_here(once)):
            os.kill(os.getpid(), signal.SIGKILL)
        return original(config, seed=seed)

    monkeypatch.setattr(experiments, "run_replication", killer)


SWEEP_ARGV = ["sweep", "--experiment", "cashiers", "--configs", "dept_atv", "--reps", "2",
              "--jobs", "2"]


def test_a_dead_worker_names_its_cell_and_seed(monkeypatch, capfd, tmp_path):
    # A cell that kills its worker is found by rerunning alone, in task
    # order, each cell whose result had not come back.
    killing_cells(monkeypatch, cashiers=1)
    out = tmp_path / "results.csv"
    assert main(SWEEP_ARGV + ["--out", str(out)]) == 1
    seed = derive_cell_seed(1, "A&TV", 1, 1)
    assert capfd.readouterr() == ("", (
        f"simulation fault: sweep cell department='A&TV' level=1 replication=1 "
        f"seed={seed}: worker process killed by SIGKILL\n"
    ))
    assert os.listdir(tmp_path) == []


def test_a_dead_worker_whose_fault_does_not_reproduce_names_the_suspects(
    monkeypatch, capfd, tmp_path
):
    killing_cells(monkeypatch, cashiers=3, once=tmp_path / "killed")
    out = tmp_path / "results.csv"
    assert main(SWEEP_ARGV + ["--out", str(out)]) == 1
    stdout, stderr = capfd.readouterr()
    assert stdout == "" and stderr.count("\n") == 1
    assert stderr.startswith(
        "simulation fault: a sweep worker process died and the fault did not reproduce: "
    )
    # The killed cell is one of level 3's, and its result never came back.
    assert any(f"level=3 replication={rep} seed={derive_cell_seed(1, 'A&TV', 3, rep)}"
               in stderr for rep in (1, 2))
    assert os.listdir(tmp_path) == ["killed"]


@pytest.mark.parametrize("experiment", ["cashiers", "empowerment"])
def test_fewer_replications_give_the_leading_rows_of_more(experiment, atv_config, ww_config):
    # Each cell's seed depends on its replication number only, so a sweep
    # with 2 replications is the replication 1-2 rows of one with 3.
    configs = {c.label: shorten(c, days=1) for c in (atv_config, ww_config)}
    two = run_sweep(experiment, configs, replications=2, base_seed=5)
    three = run_sweep(experiment, configs, replications=3, base_seed=5)
    assert len(three) == 30
    assert two == [row for row in three if row.replication <= 2]


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


ROW_EDITS = {
    "left": ({"customers_left": lambda m: m.customers_left - 1}, "customers_entered"),
    "ledger": ({"satisfaction_ledger_sum": lambda m: m.overall_satisfaction + 2},
               "overall_satisfaction"),
    "refunds": ({"refunds_completed": lambda m: m.manager_authorizations
                 + m.autonomous_refunds + 1}, "refunds_completed"),
    "refunds-short": ({"refunds_completed": lambda m: m.manager_authorizations
                       + m.autonomous_refunds - 1}, "refunds_completed"),
    "utilization-high": ({"seller_utilization": lambda m: 1.25}, "seller_utilization"),
    "utilization-negative": ({"manager_utilization": lambda m: -0.5}, "manager_utilization"),
    # Two identities broken: the error names the earlier column.
    "first-column": ({"customers_left": lambda m: m.customers_left + 1,
                      "cashier_utilization": lambda m: 2.0}, "cashier_utilization"),
}


@pytest.mark.parametrize("edits, named", ROW_EDITS.values(), ids=ROW_EDITS)
def test_load_results_rejects_rows_that_break_an_identity(
    mini_sweep, tmp_path, capsys, edits, named
):
    path = tmp_path / "edited.csv"
    save_results(mini_sweep, path)
    load_results(path)
    # Hand-edit the third row, on line 4 of the file.
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[3].split(",")
    for column, edit in edits.items():
        cells[header.index(column)] = str(edit(mini_sweep[2].metrics))
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_results(path)
    assert str(excinfo.value).startswith(f"{path}: line 4, column {named!r}: ")
    assert main(["analyze", "--results", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


VALID_METRICS = RunMetrics(10, 8, 14, -2, 0.5, None, 0.25, 20, 20, 1, 2, 0, 3, 1, 2, 14)
UTILIZATIONS = ("cashier_utilization", "seller_utilization", "manager_utilization")
BROKEN_IDENTITIES = {
    "ledger": ({"satisfaction_ledger_sum": 15},
               "column 'overall_satisfaction': must equal satisfaction_ledger_sum"),
    **{f"{name}-{side}": ({name: u}, f"column {name!r}: {u!r} does not lie in [0, 1]")
       for name in UTILIZATIONS for side, u in (("below", -0.25), ("above", 1.5))},
    "customers": ({"customers_left": 19},
                  "column 'customers_entered': must equal customers_left"),
    **{name: ({"refunds_completed": n},
              "column 'refunds_completed': must equal manager_authorizations + autonomous_refunds")
       for name, n in (("refunds", 4), ("refunds-short", 2))},
}


@pytest.mark.parametrize("changes, message", BROKEN_IDENTITIES.values(), ids=BROKEN_IDENTITIES)
def test_run_metrics_refuse_a_broken_identity_as_the_results_reader_does(
    tmp_path, changes, message
):
    with pytest.raises(ValueError) as excinfo:
        dataclasses.replace(VALID_METRICS, **changes)
    assert str(excinfo.value) == message
    # The same values in a results CSV: the reader names the line before it.
    path = tmp_path / "edited.csv"
    save_results([ResultRow("cashiers", "A", 1, 1, 7, VALID_METRICS)], path)
    header, row = path.read_text(encoding="utf-8").splitlines()
    cells = row.split(",")
    for column, value in changes.items():
        cells[csv_header().index(column)] = str(value)
    path.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_results(path)
    assert str(excinfo.value) == f"{path}: line 2, {message}"


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
