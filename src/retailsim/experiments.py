"""Experiment harness: staffing and empowerment sweeps over both departments.

Each (department, level, replication) cell gets its own seed derived by
hashing the cell coordinates under a base seed, so adding replications or
reordering execution (including --jobs parallelism) never shifts any cell's
stream. Rows come back in (experiment, department, level, replication) order,
and result CSVs are written with round-trip float formatting so a repeated
sweep is byte-identical. A replication that fails inside a sweep is reported
as a SimulationFault naming its department, level, replication and seed, so it
can be rerun on its own; so is one that kills its worker process, found by
rerunning alone, in task order, each cell from the first whose result had not
come back. A parallel sweep's workers, and each rerun, are forked wherever the
platform can fork, whatever its default start method (`forkserver` on Linux
from Python 3.14), after the parent has loaded numpy and built the kernel's
refill table, so no worker pays for either. A fork copies only the calling
thread: from Python 3.12 forking while other threads run gives a
DeprecationWarning, and a lock another thread held stays held in the worker
and can hang it, so a library caller with threads of its own runs a parallel
sweep before it starts them, or with jobs=1. Each cell's config reaches its
worker rebuilt by the config records' constructors (`records.Record`), so it
reads as fast as a loaded one. The CSV schema, its reader and its atomic
writer live in `results`, which the analysis shares; the sweep's per-cell
summary table groups rows with the ANOVA's own `results_to_cells`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal

from .config import StaffingPlan
from .department import run_replication
from .kernel import SimulationFault, hash_seed, refill_table
from .results import ResultRow, csv_header, results_to_cells, write_csv

CASHIER_LEVELS = (1, 2, 3, 4, 5)
EMPOWERMENT_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
_LEVELS = {"cashiers": CASHIER_LEVELS, "empowerment": EMPOWERMENT_LEVELS}
# The cashier sweep's headcount, and the expert sellers and managers within it.
CASHIER_SWEEP_STAFF, CASHIER_SWEEP_EXPERTS, CASHIER_SWEEP_MANAGERS = 10, 1, 1
# Most worker processes a sweep may ask for. The pool forks all of its
# workers at the first task and each holds a replication in memory, so a
# typo such as --jobs 100000 must be refused, not attempted.
MAX_JOBS = 64
# Most replications per cell. Every cell's task (about 210 bytes and 13 us)
# is built before the first replication runs, so a typo such as --reps 2000000
# must be refused, not cost gigabytes; 10 cells of 10,000 stay near 20 MB.
MAX_REPLICATIONS = 10_000


def derive_cell_seed(base_seed, department, level, replication):
    """Stable 63-bit seed for one experiment cell."""
    return hash_seed(f"{base_seed}|{department}|{level!r}|{replication}") >> 1


def cashier_fill_plan(cashiers):
    """Staffing for the cashier sweep: a fixed headcount reallocated.

    The department always fields `CASHIER_SWEEP_STAFF` staff including one
    expert seller and one section manager; whoever is not a cashier sells.
    """
    normal = CASHIER_SWEEP_STAFF - cashiers - CASHIER_SWEEP_EXPERTS - CASHIER_SWEEP_MANAGERS
    if cashiers < 1 or normal < 0:
        raise ValueError(
            f"cannot staff {cashiers} cashiers from {CASHIER_SWEEP_STAFF} total "
            f"(needs {CASHIER_SWEEP_EXPERTS} expert + {CASHIER_SWEEP_MANAGERS} manager)"
        )
    return StaffingPlan(cashiers, normal, CASHIER_SWEEP_EXPERTS, CASHIER_SWEEP_MANAGERS)


def _cell_config(experiment, config, level):
    """The config actually simulated for one cell."""
    if experiment == "cashiers":
        return dataclasses.replace(config, staffing=cashier_fill_plan(level))
    empowerment = dataclasses.replace(config.empowerment, p_empowered=level)
    return dataclasses.replace(config, empowerment=empowerment)


def _cell_name(task):
    _, department, level, replication, seed = task
    return (
        f"sweep cell department={department!r} level={level!r} "
        f"replication={replication} seed={seed}"
    )


def _run_cell(task):
    config, *_, seed = task
    try:
        return run_replication(config, seed=seed)
    except Exception as exc:
        raise SimulationFault(f"{_cell_name(task)}: {exc}") from exc


def _run_alone(task):
    """A suspect's rerun: a Python fault is no death, so it ends the process normally."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # as a pool worker does
    with contextlib.suppress(Exception):
        _run_cell(task)


def _name_dead_cell(suspects, context):
    """Rerun each suspect alone, in task order; raise a fault naming the first that dies.

    Cells are seeded independently, so a cell that killed its worker kills
    a fresh process too, unless something outside it (an out-of-memory
    kill, say) ended the worker.
    """
    for task in suspects:
        proc = context.Process(target=_run_alone, args=(task,), daemon=True)
        proc.start()
        proc.join()
        code = proc.exitcode
        if code > 0:
            raise SimulationFault(f"{_cell_name(task)}: worker process exited with code {code}")
        if code < 0:
            name = {s.value: s.name for s in signal.Signals}.get(-code, f"signal {-code}")
            raise SimulationFault(f"{_cell_name(task)}: worker process killed by {name}")
    raise SimulationFault(
        "a sweep worker process died and the fault did not reproduce: none of the "
        f"{len(suspects)} cells from the first whose result had not come back died "
        "when rerun alone: " + "; ".join(_cell_name(task) for task in suspects)
    )


def _run_parallel(tasks, workers):
    """Each task's outcome from a pool of `workers` forked processes, in task order.

    A dead worker's suspects are the cells from the first whose result had not come back.
    """
    # Imported here: only a parallel sweep pays for the pool machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    refill_table()  # the forked workers inherit numpy and the RNG's table
    # `fork` wherever there is one, not the platform's default start method.
    forks = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if forks else None)
    outcomes = []
    # Workers ignore Ctrl-C: the parent's KeyboardInterrupt is its one report.
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    ) as pool:
        try:  # once a result raises, `map` cancels every cell not yet started
            outcomes.extend(pool.map(_run_cell, tasks))
            return outcomes
        except BrokenProcessPool:
            pass
    _name_dead_cell(tasks[len(outcomes):], context)


def run_sweep(experiment, configs, replications=20, base_seed=1, jobs=1):
    """Run a full sweep; returns ResultRows in canonical order.

    `configs` maps department label to DepartmentConfig; label order is the
    row order. jobs > 1 fans replications out to at most `jobs` worker
    processes, never more than there are replications, without changing any
    result (each cell is seeded independently). jobs must lie in
    [1, MAX_JOBS] and replications in [1, MAX_REPLICATIONS].
    """
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {MAX_JOBS}, got {jobs}")
    levels = _LEVELS.get(experiment)
    if levels is None:
        raise ValueError(f"unknown experiment {experiment!r}; pick from {tuple(_LEVELS)}")
    if not configs:
        raise ValueError("design needs at least one department and one level")
    if not 1 <= replications <= MAX_REPLICATIONS:
        raise ValueError(
            f"replications must be between 1 and {MAX_REPLICATIONS}, got {replications}"
        )
    tasks = []
    for dept, config in configs.items():
        for level in levels:
            try:
                cell_cfg = _cell_config(experiment, config, level)
            except ValueError as exc:
                raise ValueError(f"sweep cell department={dept!r} level={level!r}: {exc}") from None
            for rep in range(1, replications + 1):
                seed = derive_cell_seed(base_seed, dept, level, rep)
                tasks.append((cell_cfg, dept, level, rep, seed))
    if len({task[-1] for task in tasks}) != len(tasks):
        raise ValueError("seed derivation collided across cells; change base_seed")
    workers = min(jobs, len(tasks))
    if workers > 1:
        outcomes = _run_parallel(tasks, workers)
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
