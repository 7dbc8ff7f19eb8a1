"""Command line front end: run, sweep, analyze, validate.

Exit codes: 0 success, 1 runtime failure (simulation fault, unreadable
results), 2 usage or configuration errors (a `ConfigError` is a ValueError),
130 interrupted (Ctrl-C: `interrupted` on stderr, no traceback), 141 stdout
closed by its reader (as `| head` does; nothing on stderr, and an `--out`
file is complete, since it is written before the report).
The only nondeterminism is an omitted --seed, which is generated once and
printed so the run can be reproduced.

At module level this imports only the results schema, the statistics and the
fault type, so `analyze` never loads the simulation model. Each other command
imports the config, model and sweep modules it needs when it runs.

The console script and `python -m retailsim` run `entry()`, which limits
OpenBLAS to one thread before `main()`, ends quietly with 141 when stdout's
reader has gone, and freezes the heap once `main()` returns; `main(argv)`
itself has no process-wide effect.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import sys

from .kernel import SimulationFault
from .results import METRIC_FIELDS, format_value, load_results, results_to_cells, write_csv
from .stats import ALPHA, anova_two_way, levene_test, tukey_hsd

DEFAULT_CONFIG_FILES = ("dept_atv.toml", "dept_ww.toml")
PACKAGED_CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
# The staffing keys `run` can override, one --flag each (config's StaffingPlan fields).
STAFF_ROLES = ("cashiers", "normal_sellers", "expert_sellers", "section_managers")


def resolve_config_path(name):
    """Find a config: `name` as a path, then with `.toml` appended, then packaged."""
    tried = [name] if name.endswith(".toml") else [name, name + ".toml"]
    if not os.path.dirname(name):  # a name with a directory part is a path only
        tried.append(os.path.join(PACKAGED_CONFIG_DIR, tried[-1]))
    for path in tried:
        if os.path.isfile(path):
            return path
    from .config import ConfigError

    raise ConfigError(f"config {name!r} not found; tried: {', '.join(tried)}")


def _fmt_metric(value):
    return "n/a" if value is None else format_value(value)


def _fmt(value, spec):
    """A statistic or p-value; a note in the report says why one is undefined."""
    return "undefined" if math.isnan(value) else format(value, spec)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args):
    from .config import ConfigError, load_config
    from .department import run_replication

    config = load_config(resolve_config_path(args.config))
    supplied = {r: getattr(args, r) for r in STAFF_ROLES if getattr(args, r) is not None}
    if supplied:
        try:  # the new staffing must still serve the file's [empowerment]
            staffing = dataclasses.replace(config.staffing, **supplied)
            config = dataclasses.replace(config, staffing=staffing)
        except ValueError as exc:
            flags = " ".join(f"--{role.replace('_', '-')} {n}" for role, n in supplied.items())
            raise ConfigError(f"{flags}: {exc}") from None
    if args.weeks is not None:
        try:
            horizon = dataclasses.replace(config.horizon, days=args.weeks * 7)
        except ValueError as exc:
            raise ConfigError(f"--weeks {args.weeks}: {exc}") from None
        config = dataclasses.replace(config, horizon=horizon)
    if args.seed is not None:
        seed = args.seed
    else:
        seed = int.from_bytes(os.urandom(8), "big") >> 1
    print(f"seed: {seed}")
    metrics = run_replication(config, seed=seed)
    if args.out:  # before the report, so a reader that stops early costs no file
        write_csv(args.out, METRIC_FIELDS, [[getattr(metrics, n) for n in METRIC_FIELDS]])
    for name in METRIC_FIELDS:
        print(f"{name}: {_fmt_metric(getattr(metrics, name))}")
    if args.out:
        print(f"metrics written to {args.out}")
    return 0


def cmd_sweep(args):
    from .config import ConfigError, load_config
    from .experiments import format_summary_table, run_sweep, save_results

    configs = {}
    for name in args.configs:
        cfg = load_config(resolve_config_path(name))
        if cfg.label in configs:
            raise ConfigError(f"duplicate department label {cfg.label!r} in sweep configs")
        configs[cfg.label] = cfg
    rows = run_sweep(
        args.experiment,
        configs,
        replications=args.reps,
        base_seed=args.base_seed,
        jobs=args.jobs,
    )
    save_results(rows, args.out)
    print(f"{len(rows)} replications written to {args.out}")
    metrics = ["transactions"]
    if args.experiment == "empowerment":
        metrics += ["cashier_utilization", "refund_satisfaction"]
    for metric in metrics:
        print()
        print(f"mean {metric.replace('_', ' ')} per cell:")
        # A utilization is absent when the department fields nobody in the role.
        absent = any(getattr(row.metrics, metric) is None for row in rows)
        print("n/a" if absent else format_summary_table(rows, metric))
    return 0


def cmd_analyze(args):
    rows = load_results(args.results)
    if not rows:
        raise ValueError(f"{args.results} holds no result rows")
    metric = args.metric
    try:  # rows that cannot be analyzed name their file, as a bad cell does
        experiments = {row.experiment for row in rows}
        if len(experiments) != 1:
            raise ValueError(
                f"results mix experiments {sorted(experiments)}; analyze one at a time"
            )
        experiment = experiments.pop()
        departments, levels, data = results_to_cells(rows, metric)
        import numpy as np

        cells = np.asarray(data, dtype=float)  # (departments, levels, replications)
        table = anova_two_way(cells, factor_names=("department", experiment))
        df_w = table.within.df
        lev = levene_test(cells.reshape(-1, cells.shape[2]))
        tukey = None
        if not table.degenerate:
            tukey = tukey_hsd(cells.mean(axis=(0, 2)), cells.shape[0] * cells.shape[2],
                              table.within.ms, df_w)
    except ValueError as exc:
        raise ValueError(f"{args.results}: {exc}") from None
    out = args.out
    if out is None:
        root, _ = os.path.splitext(args.results)
        out = root + ".analysis.csv"
    # Written before the report, so a reader that stops early costs no file.
    _write_analysis_csv(out, metric, table, lev, tukey, levels)

    print(f"Two-way ANOVA on {metric} ({experiment} sweep, "
          f"{len(departments)} departments x {len(levels)} levels)")
    for effect in table.effects():
        print(
            f"  {effect.name}: F({effect.df}, {df_w}) = {_fmt(effect.f, '.2f')}, "
            f"p = {_fmt(effect.p, '.6g')}"
        )
    print(
        f"  within: SS = {table.within.ss:.6g}, df = {df_w}, "
        f"MS = {table.within.ms:.6g}"
    )
    if table.degenerate:
        print("  note: zero within-cell variance; F ratios are undefined")
    print(
        f"Levene (mean-centered) across {len(departments) * len(levels)} cells: "
        f"W({lev.df1}, {lev.df2}) = {_fmt(lev.w, '.2f')}, p = {_fmt(lev.p, '.6g')}"
    )
    if lev.degenerate:
        print("  note: zero spread in absolute deviations; W is undefined")
    elif lev.p < ALPHA:
        print(f"  note: variance homogeneity rejected at alpha = {ALPHA}; "
              "interpret F tests at a stricter alpha (e.g. 0.01)")
    if tukey is None:
        print(f"Tukey HSD on {experiment} levels: skipped (degenerate ANOVA)")
    else:
        print(f"Tukey HSD on {experiment} levels (pooled over departments):")
        for r in tukey:
            mark = "*" if r.significant else " "
            print(
                f"  {levels[r.group_i]!s:>6} vs {levels[r.group_j]!s:<6} "
                f"diff = {r.diff:12.4f}  q = {r.q_stat:9.4f}  "
                f"p = {_fmt(r.p_value, '.6g')} {mark}"
            )
    print(f"analysis written to {out}")
    return 0


def _write_analysis_csv(path, metric, table, lev, tukey, levels):
    df_w = table.within.df
    rows = [["anova", e.name, e.ss, e.df, df_w, e.ms, e.f, e.p, ""] for e in table.effects()]
    rows.append(["anova", "within", table.within.ss, df_w, "", table.within.ms, "", "", ""])
    rows.append(["levene", f"{metric} cells", "", lev.df1, lev.df2, "", lev.w, lev.p, ""])
    for r in tukey or ():
        rows.append(
            ["tukey", f"{levels[r.group_i]} vs {levels[r.group_j]}", "", "", "", "",
             r.q_stat, r.p_value, str(r.significant).lower()]
        )
    header = ["section", "name", "ss", "df1", "df2", "ms", "statistic", "p", "significant"]
    write_csv(path, header, rows)


def cmd_validate(args):
    from .config import load_config

    path = resolve_config_path(args.config)
    config = load_config(path)
    print(
        f"{path}: OK ({config.label}: {config.staffing.total()} staff, "
        f"{config.horizon.days} days of {config.horizon.trading_day_minutes:g} minutes)"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="retailsim",
        description="Retail department simulator: single runs, experiment sweeps, "
        "and statistical analysis of sweep results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one replication and print its metrics")
    p_run.add_argument("--config", required=True, help="config file path or name")
    for role in STAFF_ROLES:
        flag = "--" + role.replace("_", "-")
        p_run.add_argument(flag, type=int, help=f"override staffing.{role}")
    p_run.add_argument(
        "--weeks", type=int, default=None,
        help="horizon in 7-day trading weeks (default: the config horizon, 10 weeks)",
    )
    p_run.add_argument("--seed", type=int, default=None,
                       help="replication seed (omitted: generated and printed)")
    p_run.add_argument("--out", help="also write metrics to a one-row CSV")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a full experiment sweep")
    p_sweep.add_argument(
        "--experiment", required=True, choices=("cashiers", "empowerment")
    )
    p_sweep.add_argument("--reps", type=int, default=20,
                         help="replications per cell (default 20)")
    p_sweep.add_argument("--base-seed", type=int, default=1, dest="base_seed")
    p_sweep.add_argument("--out", default="results.csv",
                         help="results CSV path (default results.csv)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")
    p_sweep.add_argument(
        "--configs", nargs="+", default=list(DEFAULT_CONFIG_FILES),
        help="department config files (default: the two shipped departments)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="ANOVA / Levene / Tukey on sweep results")
    p_an.add_argument("--results", required=True, help="results CSV from sweep")
    p_an.add_argument("--metric", default="transactions", choices=METRIC_FIELDS, metavar="METRIC",
                      help=f"one of: {', '.join(METRIC_FIELDS)}")
    p_an.add_argument(
        "--out",
        help="path for the machine-readable analysis CSV "
        "(default: <results>.analysis.csv next to the input)",
    )
    p_an.set_defaults(func=cmd_analyze)

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


def _input_paths(args):
    """The files the command reads: its results CSV or its resolved config files."""
    if args.command == "analyze":
        return [args.results]
    names = [args.config] if args.command == "run" else args.configs
    return [resolve_config_path(name) for name in names]


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)  # run, sweep and analyze write one file
    try:
        if out and os.path.isdir(out):
            raise ValueError(f"--out {out}: is a directory")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"--out {out}: no directory {os.path.dirname(out)}")
        if out and os.path.exists(out):
            for path in _input_paths(args):
                if os.path.exists(path) and os.path.samefile(out, path):
                    raise ValueError(f"--out {out}: is the input {path}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # stdout's reader has gone: entry() ends quietly
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entry():
    """Run main() with one BLAS thread and return its exit code, the heap frozen.

    Python ignores SIGPIPE, so once stdout's reader has gone a write, the
    final flush included, raises BrokenPipeError: the exit code is then 141.

    No command's matrix products are large enough for OpenBLAS to thread, so
    unless the user set OPENBLAS_NUM_THREADS, numpy starts no idle helper
    threads and a parallel sweep forks from a single-threaded process.
    `gc.freeze()` moves every object the command made to the permanent
    generation, which the collections of interpreter shutdown skip: the OS
    takes that memory back at exit anyway. atexit handlers and the flushing
    of stdio still run.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, interpreter shutdown's flush among them, go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # 128 + SIGPIPE, as a shell reports a tool SIGPIPE ended
    gc.freeze()
    return status
