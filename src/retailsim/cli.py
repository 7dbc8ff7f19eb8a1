"""Command line front end: run, sweep, analyze, validate.

Exit codes: 0 success, 1 runtime failure (simulation fault, unreadable
results), 2 usage or configuration errors (a `ConfigError` is a ValueError).
The only nondeterminism is an omitted --seed, which is generated once and
printed so the run can be reproduced.

At module level this imports only the results schema, the statistics and the
fault type, so `analyze` never loads the simulation model. Each other command
imports the config, model and sweep modules it needs when it runs.

The console script and `python -m retailsim` run `entry()`, which freezes
the heap once `main()` returns; `main(argv)` itself has no process-wide effect.
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
from .stats import anova_two_way, levene_test, tukey_hsd

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


def _fmt_p(p):
    if math.isnan(p):
        return "undefined"
    return f"{p:.6g}"


def _fmt_f(f):
    if math.isnan(f):
        return "undefined (zero within-cell variance)"
    return f"{f:.2f}"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args):
    from .config import ConfigError, load_config
    from .department import run_replication

    path = resolve_config_path(args.config)
    config = load_config(path)
    supplied = {r: getattr(args, r) for r in STAFF_ROLES if getattr(args, r) is not None}
    if supplied:
        staffing = dataclasses.replace(config.staffing, **supplied)
        try:  # the new staffing must still serve the file's [empowerment]
            config = dataclasses.replace(config, staffing=staffing)
        except ValueError as exc:
            raise ConfigError(f"{os.path.basename(path)}: {exc}") from None
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
    for name in METRIC_FIELDS:
        print(f"{name}: {_fmt_metric(getattr(metrics, name))}")
    if args.out:
        write_csv(args.out, METRIC_FIELDS, [[getattr(metrics, n) for n in METRIC_FIELDS]])
        print(f"metrics written to {args.out}")
    return 0


def cmd_sweep(args):
    from .config import ConfigError, load_config
    from .experiments import MAX_JOBS, format_summary_table, run_sweep, save_results

    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    if not 1 <= args.jobs <= MAX_JOBS:
        raise ConfigError(f"--jobs must be between 1 and {MAX_JOBS}, got {args.jobs}")
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
    experiments = {row.experiment for row in rows}
    if len(experiments) != 1:
        raise ValueError(f"results mix experiments {sorted(experiments)}; analyze one at a time")
    experiment = experiments.pop()
    metric = args.metric
    departments, levels, data = results_to_cells(rows, metric)
    table = anova_two_way(data, factor_names=("department", experiment))

    print(f"Two-way ANOVA on {metric} ({experiment} sweep, "
          f"{len(departments)} departments x {len(levels)} levels)")
    df_w = table.within.df
    for effect in table.effects():
        print(
            f"  {effect.name}: F({effect.df}, {df_w}) = {_fmt_f(effect.f)}, "
            f"p = {_fmt_p(effect.p)}"
        )
    print(
        f"  within: SS = {table.within.ss:.6g}, df = {df_w}, "
        f"MS = {table.within.ms:.6g}"
    )
    if table.degenerate:
        print("  note: zero within-cell variance; F ratios are undefined")

    flat_groups = [cell for dept_cells in data for cell in dept_cells]
    lev = levene_test(flat_groups)
    print(
        f"Levene (mean-centered) across {len(flat_groups)} cells: "
        f"W({lev.df1}, {lev.df2}) = {_fmt_f(lev.w)}, p = {_fmt_p(lev.p)}"
    )
    if lev.degenerate:
        print("  note: zero spread in absolute deviations; W is undefined")
    elif lev.p < 0.05:
        print("  note: variance homogeneity rejected at alpha = 0.05; "
              "interpret F tests at a stricter alpha (e.g. 0.01)")

    tukey = None
    if table.degenerate:
        print(f"Tukey HSD on {experiment} levels: skipped (degenerate ANOVA)")
    else:
        import numpy as np

        arr = np.asarray(data, dtype=float)
        level_means = arr.mean(axis=(0, 2))
        n_per_level = arr.shape[0] * arr.shape[2]
        tukey = tukey_hsd(level_means, n_per_level, table.within.ms, df_w)
        print(f"Tukey HSD on {experiment} levels (pooled over departments):")
        for r in tukey:
            mark = "*" if r.significant else " "
            print(
                f"  {levels[r.group_i]!s:>6} vs {levels[r.group_j]!s:<6} "
                f"diff = {r.diff:12.4f}  q = {r.q_stat:9.4f}  "
                f"p = {_fmt_p(r.p_value)} {mark}"
            )

    out = args.out
    if out is None:
        root, _ = os.path.splitext(args.results)
        out = root + ".analysis.csv"
    _write_analysis_csv(out, metric, table, lev, tukey, levels)
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
    p_an.add_argument("--metric", default="transactions",
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)  # run, sweep and analyze write one file
    try:
        if out and os.path.isdir(out):
            raise ValueError(f"--out {out}: is a directory")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"--out {out}: no directory {os.path.dirname(out)}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    """Run main() and return its exit code, the heap frozen.

    `gc.freeze()` moves every object the command made to the permanent
    generation, which the collections of interpreter shutdown skip: the OS
    takes that memory back at exit anyway. atexit handlers and the flushing
    of stdio still run.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
