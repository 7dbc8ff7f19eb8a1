"""Experiment harness: staffing and empowerment sweeps over both departments.

Each (department, level, replication) cell gets its own seed derived by
hashing the cell coordinates under a base seed, so adding replications or
reordering execution (including --jobs parallelism) never shifts any cell's
stream. Rows come back in (experiment, department, level, replication)
order, and result CSVs are written with round-trip float formatting so a
repeated sweep is byte-identical. Result files are written beside their
target and moved into place, so no reader sees half of one. A replication
that fails inside a sweep is reported as a SimulationFault naming its
department, level, replication and seed, so it can be rerun on its own.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

from .config import StaffingPlan
from .department import METRIC_FIELDS, RunMetrics, run_replication
from .kernel import SimulationFault, hash_seed

CASHIER_LEVELS = (1, 2, 3, 4, 5)
EMPOWERMENT_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
_LEVELS = {"cashiers": CASHIER_LEVELS, "empowerment": EMPOWERMENT_LEVELS}
CSV_ID_FIELDS = ("experiment", "department", "level", "replication", "seed")
# Most worker processes a sweep may ask for. The pool forks all of its
# workers at the first task and each holds a replication in memory, so a
# typo such as --jobs 100000 must be refused, not attempted.
MAX_JOBS = 64


def derive_cell_seed(base_seed, department, level, replication):
    """Stable 63-bit seed for one experiment cell."""
    return hash_seed(f"{base_seed}|{department}|{level!r}|{replication}") >> 1


def cashier_fill_plan(cashiers, total=10, expert_sellers=1, section_managers=1):
    """Staffing for the cashier sweep: a fixed headcount reallocated.

    The department always fields `total` staff including one expert seller
    and one section manager; whoever is not a cashier sells.
    """
    normal = total - cashiers - expert_sellers - section_managers
    if cashiers < 1 or normal < 0:
        raise ValueError(
            f"cannot staff {cashiers} cashiers from {total} total "
            f"(needs {expert_sellers} expert + {section_managers} manager)"
        )
    return StaffingPlan(cashiers, normal, expert_sellers, section_managers)


@dataclass(frozen=True)
class ResultRow:
    """One replication outcome tagged with its cell coordinates."""

    experiment: str
    department: str
    level: object
    replication: int
    seed: int
    metrics: RunMetrics


def _cell_config(experiment, config, level):
    """Config and staffing actually simulated for one cell."""
    if experiment == "cashiers":
        return config, cashier_fill_plan(level)
    empowerment = dataclasses.replace(config.empowerment, p_empowered=level)
    return dataclasses.replace(config, empowerment=empowerment), config.staffing


def _run_cell(task):
    config, staffing, department, level, replication, seed = task
    try:
        return run_replication(config, staffing=staffing, seed=seed)
    except Exception as exc:
        raise SimulationFault(
            f"sweep cell department={department!r} level={level!r} "
            f"replication={replication} seed={seed}: {exc}"
        ) from exc


def run_sweep(experiment, configs, replications=20, base_seed=1, jobs=1):
    """Run a full sweep; returns ResultRows in canonical order.

    `configs` maps department label to DepartmentConfig; label order is the
    row order. jobs > 1 fans replications out to at most `jobs` worker
    processes, never more than there are replications, without changing any
    result (each cell is seeded independently). jobs must lie in
    [1, MAX_JOBS].
    """
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {MAX_JOBS}, got {jobs}")
    levels = _LEVELS.get(experiment)
    if levels is None:
        raise ValueError(f"unknown experiment {experiment!r}; pick from {tuple(_LEVELS)}")
    if not configs:
        raise ValueError("design needs at least one department and one level")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    tasks = []
    for dept, config in configs.items():
        for level in levels:
            cell_cfg, staffing = _cell_config(experiment, config, level)
            for rep in range(1, replications + 1):
                seed = derive_cell_seed(base_seed, dept, level, rep)
                tasks.append((cell_cfg, staffing, dept, level, rep, seed))
    if len({task[-1] for task in tasks}) != len(tasks):
        raise ValueError("seed derivation collided across cells; change base_seed")
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: only a parallel sweep pays for the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, tasks, chunksize=8))
    else:
        outcomes = [_run_cell(t) for t in tasks]
    return [
        ResultRow(experiment, dept, level, rep, seed, metrics)
        for (_, _, dept, level, rep, seed), metrics in zip(tasks, outcomes)
    ]


# ---------------------------------------------------------------------------
# CSV round trip


def csv_header():
    return list(CSV_ID_FIELDS) + list(METRIC_FIELDS)


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(rows, fh):
    """Write rows to an open text file (newline='' per csv docs)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(csv_header())
    for row in rows:
        record = [row.experiment, row.department, row.level, row.replication, row.seed]
        record += [getattr(row.metrics, name) for name in METRIC_FIELDS]
        writer.writerow([_format_value(v) for v in record])


@contextmanager
def replaced_atomically(path):
    """Text file open for writing beside `path`, moved onto it once complete.

    Until the block finishes, an existing `path` keeps its old bytes; if the
    block raises, the partial file is removed and `path` is left alone.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_results(rows, path):
    with replaced_atomically(path) as fh:
        write_results_csv(rows, fh)


def _finite(value):
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def _parse_level(text):
    try:
        return int(text)
    except ValueError:
        return _finite(float(text))


def _parse_metric(text):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return _finite(float(text))


_ID_PARSERS = (str, str, _parse_level, int, int)


def load_results(path):
    """Read a results CSV back into ResultRows.

    A cell that does not parse, and a level or metric that is NaN or
    infinite, raises a ValueError naming the file, the line and the column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != csv_header():
            raise ValueError(
                f"{path}: unexpected results header; expected {csv_header()!r}"
            )
        parsers = _ID_PARSERS + (_parse_metric,) * len(METRIC_FIELDS)
        rows = []
        for record in reader:
            if len(record) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: wrong field count")
            values = []
            for parse, column, text in zip(parsers, header, record):
                try:
                    values.append(parse(text))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: line {reader.line_num}, column {column!r}: {exc}"
                    ) from None
            rows.append(ResultRow(*values[:5], RunMetrics(*values[5:])))
    return rows


# ---------------------------------------------------------------------------
# Summaries


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


@dataclass(frozen=True)
class CellSummary:
    experiment: str
    department: str
    level: object
    n: int
    mean: float
    sd: object  # None with a single replication


def summarize(rows, metric):
    """Per-cell mean and sample sd of one metric, in row encounter order."""
    if not rows:
        raise ValueError("no result rows to summarize")
    if metric not in METRIC_FIELDS:
        raise ValueError(f"unknown metric {metric!r}; pick from {METRIC_FIELDS}")
    order = []
    stats = {}
    for row in rows:
        key = (row.experiment, row.department, row.level)
        acc = stats.get(key)
        if acc is None:
            acc = RunningStat()
            stats[key] = acc
            order.append(key)
        value = getattr(row.metrics, metric)
        if value is None:
            raise ValueError(
                f"metric {metric!r} is absent for cell "
                f"{row.department}/{row.level} (role not staffed)"
            )
        acc.push(value)
    return [
        CellSummary(
            experiment=key[0],
            department=key[1],
            level=key[2],
            n=stats[key].n,
            mean=stats[key].mean,
            sd=stats[key].sd,
        )
        for key in order
    ]


def format_summary_table(summaries, metric):
    """Plain-text per-cell table; utilizations get 4 decimals, counts 2."""
    places = 4 if "utilization" in metric else 2
    lines = [f"{'department':<12} {'level':>8} {'n':>4} {'mean':>14} {'sd':>12}"]
    for s in summaries:
        sd = "" if s.sd is None else f"{s.sd:.{places}f}"
        lines.append(
            f"{s.department:<12} {s.level!s:>8} {s.n:>4} {s.mean:>14.{places}f} {sd:>12}"
        )
    return "\n".join(lines)


def results_to_cells(rows, metric):
    """Arrange rows as (departments, levels, values) for the two-way ANOVA.

    Departments keep first-seen order, levels sort ascending, and every
    (department, level) cell must hold the same number of replications.
    """
    if metric not in METRIC_FIELDS:
        raise ValueError(f"unknown metric {metric!r}; pick from {METRIC_FIELDS}")
    departments = []
    levels = set()
    cells = {}
    for row in rows:
        if row.department not in departments:
            departments.append(row.department)
        levels.add(row.level)
        value = getattr(row.metrics, metric)
        if value is None:
            raise ValueError(
                f"metric {metric!r} is absent for cell {row.department}/{row.level}"
            )
        cells.setdefault((row.department, row.level), []).append(value)
    levels = sorted(levels)
    counts = {key: len(v) for key, v in cells.items()}
    expected = len(departments) * len(levels)
    if len(cells) != expected or len(set(counts.values())) != 1:
        raise ValueError(
            "results are not a balanced department x level grid; "
            f"got cell counts {counts}"
        )
    data = [[cells[(d, lv)] for lv in levels] for d in departments]
    return departments, levels, data
