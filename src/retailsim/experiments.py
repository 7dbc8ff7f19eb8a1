"""Experiment harness: staffing and empowerment sweeps over both departments.

Each (department, level, replication) cell gets its own seed derived by
hashing the cell coordinates under a base seed, so adding replications or
reordering execution (including --jobs parallelism) never shifts any cell's
stream. Rows come back in (experiment, department, level, replication)
order, and result CSVs are written with round-trip float formatting so a
repeated sweep is byte-identical. A replication that fails inside a sweep is
reported as a SimulationFault naming its department, level, replication and
seed, so it can be rerun on its own. The CSV schema, its reader and its
atomic writer live in `results`, which the analysis shares; the sweep's
per-cell summary table groups rows with the ANOVA's own `results_to_cells`.
"""

from __future__ import annotations

import dataclasses

from .config import StaffingPlan
from .department import run_replication
from .kernel import SimulationFault, hash_seed
from .results import ResultRow, csv_header, results_to_cells, write_csv

CASHIER_LEVELS = (1, 2, 3, 4, 5)
EMPOWERMENT_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
_LEVELS = {"cashiers": CASHIER_LEVELS, "empowerment": EMPOWERMENT_LEVELS}
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


def _cell_config(experiment, config, level):
    """The config actually simulated for one cell."""
    if experiment == "cashiers":
        return dataclasses.replace(config, staffing=cashier_fill_plan(level))
    empowerment = dataclasses.replace(config.empowerment, p_empowered=level)
    return dataclasses.replace(config, empowerment=empowerment)


def _run_cell(task):
    config, department, level, replication, seed = task
    try:
        return run_replication(config, seed=seed)
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
            cell_cfg = _cell_config(experiment, config, level)
            for rep in range(1, replications + 1):
                seed = derive_cell_seed(base_seed, dept, level, rep)
                tasks.append((cell_cfg, dept, level, rep, seed))
    if len({task[-1] for task in tasks}) != len(tasks):
        raise ValueError("seed derivation collided across cells; change base_seed")
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: only a parallel sweep pays for the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(t) for t in tasks]
    return [
        ResultRow(experiment, dept, level, rep, seed, metrics)
        for (_, dept, level, rep, seed), metrics in zip(tasks, outcomes)
    ]


# ---------------------------------------------------------------------------
# Writing results


def save_results(rows, path):
    write_csv(path, csv_header(), (row.cells() for row in rows))


# ---------------------------------------------------------------------------
# Summaries


def format_summary_table(rows, metric):
    """Plain-text table of each cell's mean and sample sd of one metric.

    Cells come in `results_to_cells` order. Utilizations get 4 decimals,
    counts 2, and the sd is left empty for a cell with one replication.
    """
    import statistics  # loads fractions and decimal, which only this table needs

    departments, levels, data = results_to_cells(rows, metric)
    places = 4 if "utilization" in metric else 2
    lines = [f"{'department':<12} {'level':>8} {'n':>4} {'mean':>14} {'sd':>12}"]
    for department, cells in zip(departments, data):
        for level, values in zip(levels, cells):
            sd = f"{statistics.stdev(values):.{places}f}" if len(values) > 1 else ""
            mean = statistics.fmean(values)
            lines.append(
                f"{department:<12} {level!s:>8} {len(values):>4} {mean:>14.{places}f} {sd:>12}"
            )
    return "\n".join(lines)
