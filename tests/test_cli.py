"""Command line behavior: exit codes, determinism, and analysis output."""

import concurrent.futures
import csv
import dataclasses
import errno
import gc
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import tomllib

import pytest

import retailsim
from retailsim import cli, department, experiments
from retailsim.cli import PACKAGED_CONFIG_DIR, main, resolve_config_path
from retailsim.config import ConfigError, StaffingPlan
from retailsim.department import run_replication
from retailsim.experiments import MAX_JOBS, derive_cell_seed, save_results
from retailsim.results import CSV_ID_FIELDS, METRIC_FIELDS, ResultRow, RunMetrics, csv_header


@pytest.fixture(scope="module")
def atv_text():
    with open(resolve_config_path("dept_atv.toml"), encoding="utf-8") as fh:
        return fh.read()


def test_staff_roles_are_the_staffing_plan_fields():
    # cli keeps its own copy, so that analyze and --help never import config.
    assert cli.STAFF_ROLES == tuple(f.name for f in dataclasses.fields(StaffingPlan))


def shortened_configs(directory, atv_text, days):
    """Copies of both shipped configs shortened to `days` trading days."""
    with open(resolve_config_path("dept_ww.toml"), encoding="utf-8") as fh:
        ww_text = fh.read()
    for name, text in (("short_atv.toml", atv_text), ("short_ww.toml", ww_text)):
        assert "days = 70" in text
        (directory / name).write_text(
            text.replace("days = 70", f"days = {days}"), encoding="utf-8"
        )
    return directory


@pytest.fixture()
def short_dir(tmp_path, atv_text):
    return shortened_configs(tmp_path, atv_text, days=7)


def result_row(dept, level, rep, transactions, experiment="cashiers"):
    values = {name: 0 for name in METRIC_FIELDS}
    values.update(
        transactions=transactions,
        cashier_utilization=0.0,
        seller_utilization=0.0,
        manager_utilization=0.0,
    )
    return ResultRow(experiment, dept, level, rep, seed=rep, metrics=RunMetrics(**values))


def write_worked_example(path):
    # Cell values chosen so the department effect is exactly F(1, 4) = 16.
    cells = {("A", 1): (1, 3), ("A", 2): (2, 4), ("B", 1): (5, 7), ("B", 2): (6, 8)}
    rows = [
        result_row(dept, level, rep, value)
        for (dept, level), values in cells.items()
        for rep, value in enumerate(values, start=1)
    ]
    save_results(rows, path)


# -- validate -----------------------------------------------------------------


def test_validate_shipped_configs(capsys):
    assert main(["validate", "--config", "dept_atv.toml"]) == 0
    assert main(["validate", "--config", "dept_ww.toml"]) == 0
    out = capsys.readouterr().out
    assert "OK (A&TV: 10 staff, 70 days of 600 minutes)" in out
    assert "OK (WW: 10 staff, 70 days of 600 minutes)" in out


def test_validate_missing_config(capsys):
    assert main(["validate", "--config", "no_such_dept"]) == 2
    err = capsys.readouterr().err
    assert "not found" in err
    assert "tried:" in err


MUTATIONS = [
    ("triangular-mode-below-min", "mode = 7", "mode = 0.5"),
    ("probability-above-one", "need_help = 0.38", "need_help = 1.38"),
    ("probability-negative", "buy_after_help = 0.56", "buy_after_help = -0.1"),
    ("unknown-staffing-key", "cashiers = 3", "cashiers = 3\nshelf_stackers = 2"),
    ("unknown-section", "[staffing]", "[fridges]\ncount = 1\n\n[staffing]"),
    ("duplicate-key", "[arrivals]", "[arrivals]\nrate_per_hour = 40"),
    ("duplicate-section", "[staffing]", "[arrivals]\n\n[staffing]"),
    ("unterminated-section-header", "[staffing]", "[staffing"),
    ("negative-staffing", "cashiers = 3", "cashiers = -1"),
    ("fractional-staffing", "cashiers = 3", "cashiers = 2.5"),
    ("missing-arrivals-section", "[arrivals]", "[was_arrivals]"),
    ("missing-browse-duration", "[durations.browse]", "[durations.patience_help]"),
    ("missing-need-help", "need_help = 0.38\n", ""),
    ("negative-arrival-rate", "rate_per_hour = 40", "rate_per_hour = -40"),
    ("triangular-mode-above-max", "max = 15", "max = 5"),
    ("empowerment-out-of-range", "p_empowered = 0.5", "p_empowered = 1.2"),
    ("referrals-without-managers", "section_managers = 1", "section_managers = 0"),
    ("zero-day-horizon", "days = 70", "days = 0"),
    ("marginal-sum-above-one", "buy_after_browse = 0.37", "buy_after_browse = 0.87"),
    (
        "bad-cashier-priority",
        "[horizon]",
        '[queues]\ncashier_priority = ["pay", "pay"]\n\n[horizon]',
    ),
]


@pytest.mark.parametrize("label, old, new", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_validate_rejects_corrupted_config(tmp_path, capsys, atv_text, label, old, new):
    mutated = atv_text.replace(old, new, 1)
    assert mutated != atv_text, f"mutation {label} did not apply"
    path = tmp_path / "mutant.toml"
    path.write_text(mutated, encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_mutation_errors_name_field_or_line(tmp_path, capsys, atv_text):
    # Spot-check that rejection messages point at the broken field.
    cases = [
        ("need_help = 0.38", "need_help = 1.38", "need_help"),
        ("cashiers = 3", "cashiers = 2.5", "staffing.cashiers"),
        ("days = 70", "days = 0", "at least 1 day"),
        ("[staffing]", "[staffing", "line 59"),
    ]
    for old, new, fragment in cases:
        path = tmp_path / "mutant.toml"
        path.write_text(atv_text.replace(old, new, 1), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert fragment in err


NUMBER_MUTATIONS = [
    ("infinite-day", "trading_day_minutes = 600", "trading_day_minutes = inf",
     "horizon.trading_day_minutes"),
    ("nan-rate", "rate_per_hour = 40", "rate_per_hour = nan", "arrivals.rate_per_hour"),
    ("huge-int-rate", "rate_per_hour = 40", "rate_per_hour = 1" + "0" * 400,
     "arrivals.rate_per_hour"),
    ("negative-bare-duration", "[durations.browse]\nmin = 1\nmode = 7\nmax = 15",
     "[durations]\nbrowse = -5", "durations.browse"),
    ("negative-duration-min", "min = 1\nmode = 7", "min = -1\nmode = 7", "durations.browse.min"),
    ("infinite-duration-max", "max = 30", "max = inf", "durations.help.max"),
    ("infinite-multiplier", "empowered_duration_multiplier = 2.0",
     "empowered_duration_multiplier = inf", "empowerment.empowered_duration_multiplier"),
]


@pytest.mark.parametrize(
    "label, old, new, field", NUMBER_MUTATIONS, ids=[m[0] for m in NUMBER_MUTATIONS]
)
def test_validate_rejects_non_finite_and_negative_numbers(
    tmp_path, capsys, atv_text, label, old, new, field
):
    # Validate only: an infinite trading day that slipped through would make `run` loop
    # forever.
    mutated = atv_text.replace(old, new, 1)
    assert mutated != atv_text, f"mutation {label} did not apply"
    path = tmp_path / "mutant.toml"
    path.write_text(mutated, encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err


# -- run ----------------------------------------------------------------------


def test_run_is_deterministic_given_a_seed(capsys):
    argv = ["run", "--config", "dept_atv.toml", "--weeks", "1", "--seed", "42"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("seed: 42\n")
    assert "transactions: " in first


def test_run_generates_and_prints_a_seed(capsys):
    assert main(["run", "--config", "dept_atv.toml", "--weeks", "1"]) == 0
    out = capsys.readouterr().out
    seed_line = out.splitlines()[0]
    assert seed_line.startswith("seed: ")
    assert int(seed_line.split(": ")[1]) >= 0


@pytest.mark.parametrize("weeks", [0, -3])
def test_run_rejects_zero_weeks(capsys, weeks):
    rc = main(["run", "--config", "dept_atv.toml", "--weeks", str(weeks), "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--weeks {weeks}" in err and "horizon.days" in err


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("days = 70", "days = 1000000000000000000000000000000", "horizon.days"),
        ("cashiers = 3", "cashiers = 100000000000000", "staffing.cashiers"),
    ],
    ids=["days-1e30", "cashiers-1e14"],
)
def test_validate_rejects_sizes_the_model_cannot_run(
    tmp_path, capsys, atv_text, old, new, field
):
    text = atv_text.replace(old, new, 1)
    assert text != atv_text
    path = tmp_path / "huge.toml"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err and "huge.toml" in err


def test_run_rejects_weeks_beyond_the_exact_clock(capsys):
    rc = main(["run", "--config", "dept_atv.toml", "--weeks", str(10**30), "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--weeks" in err and "horizon.days" in err


def test_run_rejects_a_staffing_override_beyond_the_ceiling(capsys):
    rc = main(["run", "--config", "dept_atv.toml", "--cashiers", str(10**14), "--seed", "1"])
    assert rc == 2
    assert "staffing.cashiers must be at most" in capsys.readouterr().err


def test_run_staffing_flags_each_document_their_key(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    # Every [staffing] key has its flag.
    for role in (field.name for field in dataclasses.fields(StaffingPlan)):
        flag = "--" + role.replace("_", "-")
        assert f"{flag} {role.upper()} override staffing.{role}" in out


def test_run_staffing_override_shows_in_metrics(capsys):
    argv = [
        "run", "--config", "dept_atv.toml", "--weeks", "1", "--seed", "3",
        "--cashiers", "0",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "transactions: 0\n" in out
    assert "cashier_utilization: n/a" in out


def test_run_rejects_removing_the_manager_refunds_are_referred_to(capsys):
    argv = [
        "run", "--config", "dept_atv", "--section-managers", "0", "--seed", "3",
        "--weeks", "1",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "staffing.section_managers is 0" in err
    assert "dept_atv.toml" in err


def test_run_without_managers_when_fully_empowered(tmp_path, capsys, atv_text):
    path = tmp_path / "empowered.toml"
    text = atv_text.replace("p_empowered = 0.5", "p_empowered = 1.0", 1)
    path.write_text(text, encoding="utf-8")
    argv = [
        "run", "--config", str(path), "--section-managers", "0", "--seed", "3", "--weeks", "1",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "manager_authorizations: 0\n" in out
    assert "manager_utilization: n/a" in out


def test_empowerment_sweep_refuses_cells_with_no_manager(tmp_path, capsys, monkeypatch, atv_text):
    # The config is valid at p_empowered = 1.0, but the sweep's cells below 1
    # would refer refunds to a manager nobody staffs.
    text = atv_text.replace("section_managers = 1", "section_managers = 0", 1)
    text = text.replace("p_empowered = 0.5", "p_empowered = 1.0", 1)
    text = text.replace("days = 70", "days = 1")
    path = tmp_path / "no_manager.toml"
    path.write_text(text, encoding="utf-8")
    calls = []

    def spy(config, seed=None):
        calls.append(seed)
        return run_replication(config, seed=seed)

    monkeypatch.setattr(experiments, "run_replication", spy)
    out = tmp_path / "emp.csv"
    argv = [
        "sweep", "--experiment", "empowerment", "--reps", "1", "--configs", str(path),
        "--out", str(out),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: sweep cell department='A&TV' level=0.0: empowerment.p_empowered = 0.0 can "
        "refer refunds to a manager but staffing.section_managers is 0\n"
    )
    assert calls == []
    assert not out.exists()


def test_run_writes_one_row_csv(tmp_path, capsys):
    out_csv = tmp_path / "metrics.csv"
    argv = [
        "run", "--config", "dept_atv.toml", "--weeks", "1", "--seed", "5",
        "--out", str(out_csv),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(METRIC_FIELDS)
    assert len(lines) == 2


def test_run_csv_cells_match_the_sweep_csv(tmp_path, capsys, atv_week):
    # `run --out` and a sweep's results CSV format the same metrics alike.
    out_csv = tmp_path / "metrics.csv"
    argv = [
        "run", "--config", "dept_atv.toml", "--weeks", "1", "--seed", "7",
        "--out", str(out_csv),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    with open(out_csv, newline="", encoding="utf-8") as fh:
        header, run_cells = list(csv.reader(fh))
    metrics = run_replication(atv_week, seed=7)
    sweep_csv = tmp_path / "sweep.csv"
    save_results([ResultRow("cashiers", "A&TV", 3, 1, 7, metrics)], sweep_csv)
    with open(sweep_csv, newline="", encoding="utf-8") as fh:
        sweep_header, sweep_cells = list(csv.reader(fh))
    assert header == sweep_header[len(CSV_ID_FIELDS):] == list(METRIC_FIELDS)
    assert run_cells == sweep_cells[len(CSV_ID_FIELDS):]


# -- sweep -----------------------------------------------------------------------


# `sweep --experiment empowerment --reps 1` stdout over both shipped departments
# cut to one trading day, after its first line (the output path).
ONE_DAY_EMPOWERMENT_TABLES = (
    "",
    "mean transactions per cell:",
    "department      level    n           mean           sd",
    "A&TV              0.0    1         207.00             ",
    "A&TV             0.25    1         234.00             ",
    "A&TV              0.5    1         178.00             ",
    "A&TV             0.75    1         207.00             ",
    "A&TV              1.0    1         206.00             ",
    "WW                0.0    1         394.00             ",
    "WW               0.25    1         413.00             ",
    "WW                0.5    1         402.00             ",
    "WW               0.75    1         422.00             ",
    "WW                1.0    1         445.00             ",
    "",
    "mean cashier utilization per cell:",
    "department      level    n           mean           sd",
    "A&TV              0.0    1         0.6451             ",
    "A&TV             0.25    1         0.6485             ",
    "A&TV              0.5    1         0.5565             ",
    "A&TV             0.75    1         0.6189             ",
    "A&TV              1.0    1         0.6711             ",
    "WW                0.0    1         0.9115             ",
    "WW               0.25    1         0.9084             ",
    "WW                0.5    1         0.8386             ",
    "WW               0.75    1         0.8425             ",
    "WW                1.0    1         0.8341             ",
    "",
    "mean refund satisfaction per cell:",
    "department      level    n           mean           sd",
    "A&TV              0.0    1         108.00             ",
    "A&TV             0.25    1          80.00             ",
    "A&TV              0.5    1          82.00             ",
    "A&TV             0.75    1          82.00             ",
    "A&TV              1.0    1          90.00             ",
    "WW                0.0    1         152.00             ",
    "WW               0.25    1         146.00             ",
    "WW                0.5    1         150.00             ",
    "WW               0.75    1         164.00             ",
    "WW                1.0    1         158.00             ",
)


def sweep_argv(short_dir, out, experiment="empowerment"):
    return [
        "sweep",
        "--experiment", experiment,
        "--reps", "1",
        "--out", str(out),
        "--configs", str(short_dir / "short_atv.toml"), str(short_dir / "short_ww.toml"),
    ]


def test_sweep_writes_rows_and_summary(tmp_path, atv_text, capsys):
    out = tmp_path / "emp.csv"
    assert main(sweep_argv(shortened_configs(tmp_path, atv_text, days=1), out)) == 0
    stdout = capsys.readouterr().out
    expected = (f"10 replications written to {out}",) + ONE_DAY_EMPOWERMENT_TABLES
    assert stdout == "\n".join(expected) + "\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(csv_header())
    assert len(lines) == 11


def test_sweep_without_cashiers_prints_na_for_their_utilization(tmp_path, atv_text, capsys):
    # A department with nobody at the till has no cashier utilization.
    text = atv_text.replace("cashiers = 3", "cashiers = 0").replace("days = 70", "days = 1")
    (tmp_path / "no_cashiers.toml").write_text(text, encoding="utf-8")
    out = tmp_path / "emp.csv"
    argv = [
        "sweep", "--experiment", "empowerment", "--reps", "2", "--out", str(out),
        "--configs", str(tmp_path / "no_cashiers.toml"),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "\nmean cashier utilization per cell:\nn/a\n\nmean refund satisfaction" in stdout
    assert "mean transactions per cell:\ndepartment" in stdout
    rows = list(csv.DictReader(out.open(encoding="utf-8", newline="")))
    assert len(rows) == 10
    assert {row["cashier_utilization"] for row in rows} == {""}
    assert {row["transactions"] for row in rows} == {"0"}
    # sha256 of the CSV, recorded before the summary printed n/a: n/a changes only stdout.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e88617c54a5e1460e0a3947718955ff018e100c690ee8e53547a589568fcc296"
    )


def test_sweep_is_byte_identical_across_runs(short_dir, tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(sweep_argv(short_dir, first, "cashiers")) == 0
    assert main(sweep_argv(short_dir, second, "cashiers")) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_sweep_rejects_bad_usage(short_dir, tmp_path, capsys):
    out = tmp_path / "x.csv"
    atv = str(short_dir / "short_atv.toml")
    zero_reps = [
        "sweep", "--experiment", "cashiers", "--reps", "0", "--out", str(out), "--configs", atv,
    ]
    assert main(zero_reps) == 2
    assert "--reps" in capsys.readouterr().err
    dup = ["sweep", "--experiment", "cashiers", "--out", str(out), "--configs", atv, atv]
    assert main(dup) == 2
    assert "duplicate department label" in capsys.readouterr().err


def test_sweep_rejects_jobs_beyond_the_ceiling(short_dir, tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", started.append)
    for jobs in (0, MAX_JOBS + 1, 100_000):
        argv = sweep_argv(short_dir, tmp_path / "x.csv") + ["--jobs", str(jobs)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--jobs must be between 1 and {MAX_JOBS}, got {jobs}" in err
    assert started == []
    assert not (tmp_path / "x.csv").exists()


def test_sweep_fault_exits_1_naming_the_cell(short_dir, tmp_path, capsys, monkeypatch):
    bad_seed = derive_cell_seed(1, "WW", 0.5, 1)
    original = experiments.run_replication

    def faulty(config, seed=None):
        if seed == bad_seed:
            raise ZeroDivisionError("injected failure")
        return original(config, seed=seed)

    monkeypatch.setattr(experiments, "run_replication", faulty)
    out = tmp_path / "emp.csv"
    assert main(sweep_argv(short_dir, out)) == 1
    err = capsys.readouterr().err
    assert err == (
        f"simulation fault: sweep cell department='WW' level=0.5 replication=1 "
        f"seed={bad_seed}: injected failure\n"
    )
    assert not out.exists()


def test_sweep_out_in_a_missing_directory_fails_before_any_work(
    short_dir, tmp_path, capsys, monkeypatch
):
    calls = []

    def failing(config, seed=None):
        calls.append(seed)
        raise ZeroDivisionError("must not run")

    monkeypatch.setattr(experiments, "run_replication", failing)
    out = tmp_path / "nodir" / "emp.csv"
    assert main(sweep_argv(short_dir, out) + ["--jobs", "1"]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: no directory {out.parent}\n"
    assert calls == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_naming_a_directory_fails_before_any_work(
    short_dir, tmp_path, capsys, monkeypatch, command
):
    calls = []

    def failing(config, seed=None):
        calls.append(seed)
        raise ZeroDivisionError("must not run")

    monkeypatch.setattr(department, "run_replication", failing)
    monkeypatch.setattr(experiments, "run_replication", failing)
    target = tmp_path / "a_directory"
    target.mkdir()
    argv = {
        "run": ["run", "--config", "dept_ww", "--weeks", "1", "--seed", "1", "--out", str(target)],
        "sweep": sweep_argv(short_dir, target) + ["--jobs", "1"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --out {target}: is a directory\n"
    assert calls == []


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_out_errors_name_the_path_not_a_temp_file(tmp_path, capsys, monkeypatch, command):
    results = tmp_path / "worked.csv"
    write_worked_example(results)
    argv = {
        "run": ["run", "--config", "dept_ww", "--weeks", "1", "--seed", "1"],
        "analyze": ["analyze", "--results", str(results)],
    }[command]
    missing = tmp_path / "nodir" / "out.csv"
    assert main(argv + ["--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"--out {missing}" in err and ".tmp" not in err

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, None, dst)

    # A write that fails after the work, here at the final move, names the target.
    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "out.csv"
    assert main(argv + ["--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{target}'\n"
    assert not target.exists()
    assert list(tmp_path.glob("*.tmp")) == []


# -- analyze ----------------------------------------------------------------------


def test_analyze_worked_example(tmp_path, capsys):
    results = tmp_path / "worked.csv"
    write_worked_example(results)
    assert main(["analyze", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert "Two-way ANOVA on transactions (cashiers sweep, 2 departments x 2 levels)" in out
    assert "department: F(1, 4) = 16.00, p = 0.01613" in out
    assert "cashiers: F(1, 4) = 1.00, p = 0.373901" in out
    assert "department x cashiers: F(1, 4) = 0.00, p = 1" in out
    assert "Levene (mean-centered) across 4 cells: W(3, 4) = 0.00, p = 1" in out
    assert "Tukey HSD on cashiers levels (pooled over departments):" in out
    assert "analysis written to" in out

    machine = tmp_path / "worked.analysis.csv"
    text = machine.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "section,name,ss,df1,df2,ms,statistic,p,significant"
    dept_row = next(l for l in lines if l.startswith("anova,department,"))
    assert ",32.0,1,4,32.0,16.0," in dept_row
    assert any(l.startswith("levene,") for l in lines)
    assert any(l.startswith("tukey,1 vs 2,") and l.endswith(",false") for l in lines)


def test_analyze_explicit_out_path(tmp_path, capsys):
    results = tmp_path / "worked.csv"
    target = tmp_path / "elsewhere.csv"
    write_worked_example(results)
    assert main(["analyze", "--results", str(results), "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.exists()
    assert not (tmp_path / "worked.analysis.csv").exists()


def test_analyze_degenerate_results(tmp_path, capsys):
    rows = [
        result_row(dept, level, rep, transactions=7)
        for dept in ("A", "B")
        for level in (1, 2)
        for rep in (1, 2)
    ]
    results = tmp_path / "flat.csv"
    save_results(rows, results)
    assert main(["analyze", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert "zero within-cell variance; F ratios are undefined" in out
    assert "zero spread in absolute deviations; W is undefined" in out
    assert "Tukey HSD on cashiers levels: skipped (degenerate ANOVA)" in out


def test_analyze_rejects_unknown_metric(tmp_path, capsys):
    results = tmp_path / "worked.csv"
    write_worked_example(results)
    assert main(["analyze", "--results", str(results), "--metric", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown metric 'bogus'" in err
    assert "transactions" in err  # the valid choices are listed


def test_analyze_rejects_mixed_experiments(tmp_path, capsys):
    rows = [
        result_row("A", level, rep, transactions=level + rep, experiment=exp)
        for exp in ("cashiers", "empowerment")
        for level in (1, 2)
        for rep in (1, 2)
    ]
    results = tmp_path / "mixed.csv"
    save_results(rows, results)
    assert main(["analyze", "--results", str(results)]) == 2
    assert "analyze one at a time" in capsys.readouterr().err


def test_analyze_missing_results_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["analyze", "--results", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_analyze_empty_results(tmp_path, capsys):
    results = tmp_path / "empty.csv"
    results.write_text(",".join(csv_header()) + "\n", encoding="utf-8")
    assert main(["analyze", "--results", str(results)]) == 2
    assert "holds no result rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, value, reason",
    [
        ("transactions", "abc", "could not convert string to float: 'abc'"),
        ("level", "xyz", "could not convert string to float: 'xyz'"),
        ("overall_satisfaction", "nan", "nan is not a finite number"),
        ("cashier_utilization", "-inf", "-inf is not a finite number"),
    ],
)
def test_analyze_names_the_bad_cell(tmp_path, capsys, column, value, reason):
    results = tmp_path / "worked.csv"
    write_worked_example(results)
    lines = results.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    cells[header.index(column)] = value
    lines[2] = ",".join(cells)
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--results", str(results)]) == 2
    err = capsys.readouterr().err
    assert f"error: {results}: line 3, column {column!r}: {reason}" in err


# -- config resolution ----------------------------------------------------------------


def test_config_path_suffix_fallback(short_dir, capsys):
    assert main(["validate", "--config", str(short_dir / "short_atv")]) == 0
    assert "7 days" in capsys.readouterr().out


def test_config_lookup_tries_path_then_suffix_then_packaged(short_dir, monkeypatch):
    monkeypatch.chdir(short_dir)
    path = str(short_dir / "short_atv.toml")
    assert resolve_config_path(path) == path
    assert resolve_config_path(path[: -len(".toml")]) == path
    assert resolve_config_path("short_ww") == "short_ww.toml"
    packaged = os.path.join(PACKAGED_CONFIG_DIR, "dept_ww.toml")
    assert resolve_config_path("dept_ww") == packaged
    assert resolve_config_path("dept_ww.toml") == packaged


def test_config_lookup_error_lists_exactly_the_paths_tried(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    packaged = os.path.join(PACKAGED_CONFIG_DIR, "nope.toml")
    with pytest.raises(ConfigError) as bare:
        resolve_config_path("nope")
    assert str(bare.value) == f"config 'nope' not found; tried: nope, nope.toml, {packaged}"
    with pytest.raises(ConfigError) as suffixed:
        resolve_config_path("nope.toml")
    assert str(suffixed.value) == f"config 'nope.toml' not found; tried: nope.toml, {packaged}"
    # A name with a directory part is a path only.
    with pytest.raises(ConfigError) as pathed:
        resolve_config_path("sub/nope")
    assert str(pathed.value) == "config 'sub/nope' not found; tried: sub/nope, sub/nope.toml"


def test_installed_entry_point_runs():
    exe = shutil.which("retailsim")
    argv = [exe] if exe else [sys.executable, "-m", "retailsim.cli"]
    proc = subprocess.run(
        argv + ["validate", "--config", "dept_atv.toml"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "retailsim", "validate", "--config", "dept_ww.toml"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


# An atexit hook that records whether the heap is frozen when it runs, in a
# file beside it, so that the command's own output stays untouched.
FREEZE_PROBE = """\
import atexit, gc, os
def _record():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen.txt")
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count() > 0))
atexit.register(_record)
"""
ENTRY_RUNS = {
    "validate-ok": (["validate", "--config", "dept_atv.toml"], 0),
    "bad-config": (["validate", "--config", "missing"], 2),
    "no-results": (["analyze", "--results", "{tmp_path}/missing.csv"], 1),
}


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path, capsys):
    assert gc.get_freeze_count() == 0
    for argv, rc in ENTRY_RUNS.values():
        assert main([arg.format(tmp_path=tmp_path) for arg in argv]) == rc
        assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("module", ["retailsim", "retailsim.cli"])
@pytest.mark.parametrize("run", list(ENTRY_RUNS))
def test_module_entry_freezes_the_heap_and_keeps_output(tmp_path, capsys, monkeypatch,
                                                        module, run):
    argv, rc = ENTRY_RUNS[run]
    argv = [arg.format(tmp_path=tmp_path) for arg in argv]
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(FREEZE_PROBE, encoding="utf-8")
    src = str(pathlib.Path(retailsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(probe), src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert (probe / "frozen.txt").read_text(encoding="utf-8") == "True"
    # The same command in-process is today's output: the entry adds nothing to it.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == rc
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, captured.out, captured.err)


def test_console_script_is_the_entry():
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"retailsim": "retailsim.cli:entry"}


# What loaded_by reports. No command loads the first five: scipy is a test
# oracle only, and the kernel generates PCG64 itself and takes sha256 from
# CPython's own module, so neither numpy.random (which loads secrets) nor
# hashlib (which loads OpenSSL as _hashlib) is needed. The process pool
# serves only `sweep --jobs N` with N > 1, and numpy only simulating and
# analysing.
WATCHED = (
    "scipy", "numpy.random", "secrets", "hashlib", "_hashlib",
    "concurrent.futures.process", "numpy",
)
# The simulation model and what only it needs: analysis reads results
# without it, and computes its quadrature nodes without numpy.polynomial.
MODEL = (
    "retailsim.config", "retailsim.department", "retailsim.experiments",
    "tomllib", "logging", "numpy.polynomial",
)


def loaded_by(argv, watched=WATCHED):
    """Run `retailsim argv` in a fresh interpreter.

    Returns its stdout lines; the last one is the exit code, also of an
    argparse exit (help or a usage error), followed by the `watched` modules
    loaded by then.
    """
    code = (
        "import sys\n"
        "from retailsim.cli import main\n"
        "try:\n"
        f"    rc = main({argv!r}) if {argv!r} else 0\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        f"print(rc, *[m for m in {watched!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_commands_import_only_what_they_use(tmp_path, short_dir):
    assert loaded_by([]) == ["0"]
    results = tmp_path / "worked.csv"
    write_worked_example(results)
    lines = loaded_by(["analyze", "--results", str(results)], WATCHED + MODEL)
    assert "Tukey HSD on cashiers levels (pooled over departments):" in lines
    assert lines[-1] == "0 numpy"
    lines = loaded_by(["validate", "--config", "dept_atv.toml"], WATCHED + MODEL)
    rc, *loaded = lines[-1].split()
    assert rc == "0"
    assert "retailsim.department" not in loaded
    assert "retailsim.experiments" not in loaded
    lines = loaded_by(["run", "--config", "dept_atv.toml", "--weeks", "1", "--seed", "1"])
    assert lines[-1] == "0 numpy"
    # A serial sweep starts no pool either.
    lines = loaded_by(sweep_argv(short_dir, tmp_path / "emp.csv") + ["--jobs", "1"])
    assert lines[-1] == "0 numpy"


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["validate", "--config", "dept_atv.toml"], "0"),
        (["--help"], "0"),
        (["validate", "--config", "nope"], "2"),
        (["sweep", "--experiment", "cashiers", "--jobs", "0"], "2"),
        (["run", "--config", "dept_atv.toml", "--weeks", "0"], "2"),
        (["run"], "2"),
        (["analyze", "--results", "{tmp_path}/missing.csv"], "1"),
    ],
    ids=["validate", "help", "unknown-config", "jobs-0", "weeks-0", "usage", "no-results"],
)
def test_cold_start_commands_leave_numpy_unloaded(tmp_path, argv, rc):
    argv = [arg.format(tmp_path=tmp_path) for arg in argv]
    assert loaded_by(argv)[-1] == rc
