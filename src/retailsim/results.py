"""The results-CSV schema that the model writes and the analysis reads.

`RunMetrics` is one replication's outcome, held to the identities every
replication satisfies, and `ResultRow` tags it with its sweep cell. A results
CSV holds the cell columns, then one column per metric, with round-trip float
formatting. `load_results` reads one back, each cell by its field's type: a
count is an int, only a utilization may be empty, and a bad cell or broken
identity is an error naming the file, the line and the column. `write_csv`
writes every CSV the CLI makes, results, `run --out` and analysis files alike:
one dialect, one cell format, and each file is written beside its target and
moved into place, so no reader sees half of one.

Both are `records.Record`s. This module imports only the standard library
and `records`, so `analyze` reads results without loading the simulation
model or the config reader's `tomllib`.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields

from .records import Record


class RunMetrics(Record):
    """Aggregate outcome of one replication.

    Field order is the column order of result CSVs. Utilizations are None
    (empty CSV cell) when the staffing plan has nobody in the role, which is
    not the same thing as 0.0. Building one checks the identities every
    replication satisfies, the model's rows and the reader's alike; two
    pairs of columns are equal by construction, both kept to be checkable.
    """

    transactions: int
    satisfied_customers: int
    overall_satisfaction: int
    refund_satisfaction: int
    cashier_utilization: float | None
    seller_utilization: float | None
    manager_utilization: float | None
    customers_entered: int
    customers_left: int
    abandoned_help: int
    abandoned_pay: int
    abandoned_refund: int
    refunds_completed: int
    manager_authorizations: int
    autonomous_refunds: int
    satisfaction_ledger_sum: int

    def __post_init__(self):
        if self.overall_satisfaction != self.satisfaction_ledger_sum:
            raise ValueError("column 'overall_satisfaction': must equal satisfaction_ledger_sum")
        for name, u in (("cashier_utilization", self.cashier_utilization),
                        ("seller_utilization", self.seller_utilization),
                        ("manager_utilization", self.manager_utilization)):
            if u is not None and not 0 <= u <= 1:
                raise ValueError(f"column {name!r}: {u!r} does not lie in [0, 1]")
        if self.customers_entered != self.customers_left:
            raise ValueError("column 'customers_entered': must equal customers_left")
        if self.refunds_completed != self.manager_authorizations + self.autonomous_refunds:
            raise ValueError(
                "column 'refunds_completed': must equal manager_authorizations + autonomous_refunds"
            )


class ResultRow(Record):
    """One replication outcome tagged with its cell coordinates."""

    experiment: str
    department: str
    level: object
    replication: int
    seed: int
    metrics: RunMetrics

    def cells(self):
        """This row's values in `csv_header` order."""
        return [self.experiment, self.department, self.level, self.replication, self.seed,
                *(getattr(self.metrics, name) for name in METRIC_FIELDS)]


METRIC_FIELDS = tuple(f.name for f in fields(RunMetrics))
CSV_ID_FIELDS = tuple(f.name for f in fields(ResultRow)[:-1])  # all but `metrics`


def csv_header():
    return list(CSV_ID_FIELDS) + list(METRIC_FIELDS)


def format_value(value):
    """One CSV cell: None and NaN are empty, a float its round-trip repr."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


@contextmanager
def replaced_atomically(path):
    """Text file open for writing beside `path`, moved onto it once complete.

    Until the block finishes, an existing `path` keeps its old bytes; if the
    block raises, the partial file is removed and `path` is left alone. An
    OSError names `path`, the file the caller asked for, not the temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def write_csv(path, header, rows):
    """Write `header`, then `rows` with each cell through `format_value`, atomically."""
    with replaced_atomically(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)


def _finite(value):
    if not abs(value) <= sys.float_info.max:  # false for ±inf, NaN and an int past float range
        raise ValueError(f"{value!r} is not a finite number")
    return value


def _parse_level(text):
    try:
        return int(text)
    except ValueError:
        return _finite(float(text))


def _parse_utilization(text):
    return None if text == "" else _finite(float(text))


_PARSE = {"str": str, "int": lambda text: _finite(int(text)), "object": _parse_level,
          "float | None": _parse_utilization}  # by field annotation; only a utilization may be empty
_PARSERS = tuple(_PARSE[f.type] for f in fields(ResultRow)[:-1] + fields(RunMetrics))


def load_results(path):
    """Read a results CSV back into ResultRows.

    A file that is not UTF-8 text or not CSV, a cell that does not parse, a
    level or metric that is NaN or infinite, and a row that breaks an
    identity of `RunMetrics` raise a ValueError naming the file and, for a
    cell or a row, the line and the column.
    """
    try:
        with open(path, "rb") as fh:
            reader = csv.reader(io.StringIO(fh.read().decode("utf-8"), newline=""))
        header = next(reader, None)
        if header != csv_header():
            raise ValueError(f"unexpected results header; expected {csv_header()!r}")
        rows = []
        for record in reader:
            if len(record) != len(header):
                raise ValueError(f"line {reader.line_num}: wrong field count")
            try:
                values = []
                for parse, column, text in zip(_PARSERS, header, record):
                    try:
                        values.append(parse(text))
                    except ValueError as exc:
                        raise ValueError(f"column {column!r}: {exc}") from None
                rows.append(ResultRow(*values[:5], RunMetrics(*values[5:])))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}, {exc}") from None
    except (ValueError, csv.Error) as exc:  # a UnicodeDecodeError is a ValueError
        raise ValueError(f"{path}: {exc}") from None
    return rows


def results_to_cells(rows, metric):
    """Arrange rows as (departments, levels, values): the ANOVA's and the sweep summary's cells.

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
