"""Definitions, helpers and the untraced workloads of the retailsim benchmark.

perfbench/run.py is the entry point; perfbench/tracer.py holds the traced run.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
NPROC = len(os.sched_getaffinity(0))

RUN_SECONDS = 30
COMMAND_TIMEOUT_S = 120
SETUP_SAMPLES_BEFORE = 4
PACKAGED_CONFIGS = ("dept_atv", "dept_ww")
CELLS = 2 * 5  # departments x levels in either experiment
ID_FIELDS = ("experiment", "department", "level", "replication", "seed")

# Sweep workloads use the shipped departments at their full horizon.
FULL_DAYS = 70
SWEEPS = {
    "sweep_cashiers": {"experiment": "cashiers", "reps": 2, "jobs": NPROC},
    "sweep_empowerment": {"experiment": "empowerment", "reps": 1, "jobs": 1},
}
# Inputs of the analyze workload: the paper's 2 x 5 x 20 layout (200 rows per
# CSV). Analyze cost depends on the row count, not on the horizon, so one
# trading day per replication keeps the untimed set-up short.
ANALYZE_INPUT = {"reps": 20, "days": 1, "jobs": NPROC}
EXPERIMENTS = ("cashiers", "empowerment")

WORKLOADS = {
    "sweep_cashiers": "criterion-01 cashier sweep at --jobs nproc: load swings from "
    "heavy reneging at 1 cashier to help-queue pressure at 5; uses the process fan-out",
    "sweep_empowerment": "empowerment sweep at --jobs 1: fixed staffing, the refund and "
    "manager-referral path varies; no process pool, so it isolates the event loop",
    "analyze": "retailsim analyze closed-loop over every result metric of two 200-row "
    "CSVs: CLI start-up and statistics do all the work, simulation none",
}

# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression. Time
# bounds are wide because the speed of a shared 2-vCPU machine drifts by 10-30%
# over seconds to minutes (see README.md); memory is steady.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("customers_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("kernel.uniform_ns", "ns", "lower"),
    ("kernel.schedule_ns", "ns", "lower"),
    ("kernel.loop_self_s", "s", "lower"),
    ("kernel.events_scheduled", "count", "lower"),
    ("kernel.events_dispatched", "count", "lower"),
    ("kernel.stale_ratio", "ratio", "lower"),
    ("sampling.triangular_ns", "ns", "lower"),
    ("sampling.interarrival_ns", "ns", "lower"),
    ("sampling.draws", "count", "lower"),
    ("queueing.reneges", "count", "lower"),
    ("queueing.remove_us", "us", "lower"),
    ("queueing.remove_scan_mean", "count", "lower"),
    ("queueing.pop_first_servable_us", "us", "lower"),
    ("queueing.refund_paths", "count", "lower"),
    ("agents.transitions", "count", "lower"),
    ("agents.transition_ns", "ns", "lower"),
    ("department.replication_s.atv", "s", "lower"),
    ("department.replication_s.ww", "s", "lower"),
    ("department.events_per_s", "1/s", "higher"),
    ("department.handler_self_s", "s", "lower"),
    ("config.load_ms", "ms", "lower"),
    ("experiments.parallel_speedup", "ratio", "higher"),
    ("experiments.save_results_ms", "ms", "lower"),
    ("experiments.load_results_ms", "ms", "lower"),
    ("stats.anova_ms", "ms", "lower"),
    ("stats.levene_ms", "ms", "lower"),
    ("stats.tukey_ms", "ms", "lower"),
    ("stats.range_tail_ms", "ms", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.scipy_import_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}


def benchmark_manifest():
    """The BENCHMARK.json document, built from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Small helpers


def tail_index(n):
    """Index (ascending order) of the highest sample with >= 10 samples beyond it.

    Returns None when fewer than 11 samples exist, since no percentile then
    keeps ten samples beyond it.
    """
    if n < 11:
        return None
    return n - 11


def tail(values):
    """(value, percentile) of the tail sample, or (None, None)."""
    ordered = sorted(values)
    k = tail_index(len(ordered))
    if k is None:
        return None, None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_digests():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


class DigestCheck:
    """Compares output files with the digests recorded for this seed.

    For a seed with no recorded digest, the first output of each key in this
    run becomes the reference, so every repeat must reproduce it byte for byte.
    With record=True, digests seen for unrecorded keys are stored instead.
    """

    def __init__(self, seed, record=False):
        self.seed = str(seed)
        self.record = record
        self.table = load_digests()
        self.first = {}

    def ok(self, key, digest):
        recorded = self.table.get(key, {}).get(self.seed)
        if recorded is None and self.record:
            self.table.setdefault(key, {})[self.seed] = digest
            recorded = digest
        if recorded is not None:
            return digest == recorded
        return self.first.setdefault(key, digest) == digest

    def save(self):
        if self.record:
            text = json.dumps(self.table, indent=1, sort_keys=True) + "\n"
            DIGESTS.write_text(text, encoding="utf-8")


def check_results_csv(path, expected_rows):
    """Independent checks of a results CSV; returns (ok, customers_entered_sum)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ok = len(rows) == expected_rows
    customers = 0
    try:
        for row in rows:
            entered = int(row["customers_entered"])
            customers += entered
            ok = ok and entered == int(row["customers_left"])
            ok = ok and row["overall_satisfaction"] == row["satisfaction_ledger_sum"]
    except (KeyError, TypeError, ValueError):
        return False, 0
    return ok, customers


def metric_fields(path):
    """Result metric columns of a results CSV, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    return header[len(ID_FIELDS):]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Command:
    """One finished `python -m retailsim` command."""

    def __init__(self, wall_s, rss_mb, returncode):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.returncode = returncode


def run_cli(args, log_name="cli"):
    """Run one retailsim command; time it and take the peak RSS of its process tree.

    os.wait4 reports the largest RSS of the command and of every descendant it
    waited for, which covers the sweep's worker processes.
    """
    WORK.mkdir(exist_ok=True)
    argv = [sys.executable, "-m", "retailsim", *args]
    with open(WORK / f"{log_name}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=log, stderr=log)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return Command(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def git_provenance():
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(dirty)}


def source_digest():
    """sha256 over the package sources: identifies the code in a non-git checkout."""
    h = hashlib.sha256()
    pkg = SRC / "retailsim"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".toml"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed):
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        **git_provenance(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **versions,
        "nproc": NPROC,
        "base_seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Untraced workloads


class Setup:
    """Cold-start samples: `retailsim validate` over the packaged configs.

    A few samples come before the workload and one after each timed
    operation, so their median spans the whole run rather than one moment of
    the machine's speed drift.
    """

    def __init__(self, report):
        self.report = report
        self.samples = []
        self._validate()  # warm-up: writes the bytecode cache

    def _validate(self):
        config = PACKAGED_CONFIGS[len(self.samples) % 2]
        cmd = run_cli(["validate", "--config", config], "validate")
        self.report.attempt(cmd.returncode == 0)
        return cmd.wall_s

    def sample(self):
        self.samples.append(self._validate())


def timed_loop(seconds, op, after):
    """Call op() until the next call would end past `seconds`; at least once.

    after() runs between calls and counts against `seconds`, not against op().
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(op())
        last = time.perf_counter() - t0
        after()
        if time.perf_counter() - start + last > seconds:
            return results


def checked_sweep(experiment, reps, jobs, seed, days, out, report, digests,
                  configs=()):
    """Run one CLI sweep and check its CSV; returns (command, ok, customers_entered)."""
    args = ["sweep", "--experiment", experiment, "--reps", str(reps), "--jobs", str(jobs),
            "--base-seed", str(seed), "--out", str(out)]
    if configs:
        args += ["--configs", *map(str, configs)]
    cmd = run_cli(args, "sweep")
    ok, customers = cmd.returncode == 0, 0
    if ok:
        ok, customers = check_results_csv(out, CELLS * reps)
        ok = ok and digests.ok(sweep_key(experiment, reps, days), sha256_file(out))
    report.attempt(ok)
    return cmd, ok, customers


def run_sweep_workload(name, seed, seconds, report, digests, after):
    spec = SWEEPS[name]
    out = WORK / f"{name}.csv"
    results = timed_loop(seconds, lambda: checked_sweep(
        spec["experiment"], spec["reps"], spec["jobs"], seed, FULL_DAYS, out, report,
        digests), after)
    walls = [cmd.wall_s for cmd, _, _ in results]
    report.samples = {"sweep_wall_s": walls}
    return {
        "wall_s": median(walls),
        "customers_per_s": median(c / cmd.wall_s for cmd, _, c in results),
        "peak_rss_mb": median(cmd.rss_mb for cmd, _, _ in results),
    }


def write_short_configs():
    """Copies of the packaged configs with a horizon of ANALYZE_INPUT['days']."""
    out_dir = WORK / "configs"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in PACKAGED_CONFIGS:
        text = (SRC / "retailsim" / "configs" / f"{name}.toml").read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        hits = [i for i, line in enumerate(lines) if line.strip().startswith("days =")]
        if len(hits) != 1:
            raise RuntimeError(f"{name}.toml: expected one 'days =' line, found {len(hits)}")
        lines[hits[0]] = f"days = {ANALYZE_INPUT['days']}\n"
        path = out_dir / f"{name}.toml"
        path.write_text("".join(lines), encoding="utf-8")
        paths.append(path)
    return paths


def sweep_key(experiment, reps, days):
    """Digest-table key of a results CSV."""
    return f"{experiment}.reps{reps}.days{days}"


def make_analyze_inputs(seed, report, digests):
    """Generate the two results CSVs the analyze workload reads (untimed)."""
    configs = write_short_configs()
    inputs = {}
    for experiment in EXPERIMENTS:
        out = WORK / f"analyze-input-{experiment}.csv"
        _, ok, customers = checked_sweep(
            experiment, ANALYZE_INPUT["reps"], ANALYZE_INPUT["jobs"], seed,
            ANALYZE_INPUT["days"], out, report, digests, configs)
        if not ok:
            raise RuntimeError(f"could not generate the {experiment} analyze input")
        inputs[experiment] = (out, customers)
    return inputs


def run_analyze_workload(seed, seconds, report, digests, after):
    inputs = make_analyze_inputs(seed, report, digests)
    metrics = metric_fields(inputs["cashiers"][0])
    out = WORK / "analysis.csv"
    batch_numbers = itertools.count()

    def one_batch():
        b = next(batch_numbers)
        calls = []
        customers = 0
        for k, metric in enumerate(metrics):
            experiment = EXPERIMENTS[(k + b) % 2]
            path, entered = inputs[experiment]
            if out.exists():
                out.unlink()
            cmd = run_cli(
                ["analyze", "--results", str(path), "--metric", metric, "--out", str(out)],
                "analyze",
            )
            ok = cmd.returncode == 0 and out.exists()
            ok = ok and digests.ok(f"analysis.{experiment}.{metric}", sha256_file(out))
            report.attempt(ok)
            calls.append(cmd)
            customers += entered
        return calls, customers

    batches = timed_loop(seconds, one_batch, after)
    call_ms = [cmd.wall_s * 1e3 for calls, _ in batches for cmd in calls]
    batch_walls = [sum(cmd.wall_s for cmd in calls) for calls, _ in batches]
    report.samples = {"analyze_call_ms": call_ms, "batch_wall_s": batch_walls}
    tail_ms, tail_pct = tail(call_ms)
    report.extra = {
        "analyze_ms_p50": median(call_ms),
        "analyze_ms_tail": tail_ms,
        "analyze_tail_percentile": tail_pct,
        "analyze_calls": len(call_ms),
    }
    return {
        "wall_s": median(batch_walls),
        "customers_per_s": median(
            c / wall for (_, c), wall in zip(batches, batch_walls)
        ),
        "peak_rss_mb": median(cmd.rss_mb for calls, _ in batches for cmd in calls),
    }


# ---------------------------------------------------------------------------
# Reporting


class Report:
    """Operations attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.extra = {}

    def attempt(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1


def run_workload(workload, seed, seconds, report, digests):
    """Untraced run of one workload; returns the end-to-end metrics."""
    setup = Setup(report)
    for _ in range(SETUP_SAMPLES_BEFORE):
        setup.sample()
    if workload == "analyze":
        measured = run_analyze_workload(seed, seconds, report, digests, setup.sample)
    else:
        measured = run_sweep_workload(workload, seed, seconds, report, digests,
                                      setup.sample)
    report.samples["setup_s"] = setup.samples
    return {"setup_s": median(setup.samples), **measured}
