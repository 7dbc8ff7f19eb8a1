"""Traced in-process run of retailsim: the per-layer metrics.

The benchmark wraps the public functions of each retailsim module from here,
without editing the package, and restores every attribute afterwards. Where a
caller bound a function with `from ... import`, the caller's name is patched
(for example `retailsim.department.sample_triangular`).

Two kinds of wrapper:

* spans, at the coarse boundaries (workload, config load, replication, CSV
  write, load_results, anova, levene, tukey): name, start, end, parent id and
  a trace id shared by every span of the run, kept in memory and written to
  .perfbench_work/spans-<workload>-seed<seed>.jsonl at the end;
* aggregates, on hot inner calls (a WW replication makes ~170k schedule
  calls): a call count, total time and the time spent in wrapped callees, so
  self time is total minus callee time.

Simulation runs three times over the same cells: at jobs=nproc with nothing
patched, at jobs=1 with spans only ("untraced": per-replication times), and at
jobs=1 with every aggregate wrapper ("traced": counts and per-call costs). All
three must give identical RunMetrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import bench

MODULES = ("agents", "cli", "config", "department", "experiments", "kernel",
           "queueing", "sampling", "stats")
CONFIG_LOADS = 10
CSV_WRITES = 5
IMPORTTIME_RUNS = 3
SIM_REPS = 1  # replications per cell for the sweep workloads' traced run


class Tracer:
    """Spans, per-function aggregates, and the patches that collect them."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self._open = [None]
        self._next_id = 1
        # name -> [calls, total_ns, callee_ns]; the child stack holds, for each
        # active aggregate wrapper, the time spent in wrapped callees so far.
        self.agg = {}
        self._child = [0]
        self.probes = {}
        self.calendar_leftover = 0
        self._patched = []

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, **attrs):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1]
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append({"trace": self.trace_id, "id": sid, "parent": parent,
                               "name": name, "start_ns": start, "end_ns": end, **attrs})

    def spanned(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return wrapper

    def durations(self, name, parent=None):
        """Durations in seconds of the spans called `name`, optionally under one parent."""
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans
                if s["name"] == name and (parent is None or s["parent"] == parent)]

    # -- aggregates ---------------------------------------------------------

    def timed(self, name, fn):
        rec = self.agg.setdefault(name, [0, 0, 0])
        stack = self._child
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += stack.pop()
                stack[-1] += dt
        return wrapper

    def probed(self, name, fn, probe):
        """timed(), plus the sum of probe(*args) taken before each call."""
        rec = self.probes.setdefault(name, [0])
        inner = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += probe(*args, **kwargs)
            return inner(*args, **kwargs)
        return wrapper

    def timed_run_until(self, run_until):
        """Time the event loop and, separately, each dispatch it makes."""
        def wrapper(calendar, t_end, dispatcher):
            result = run_until(calendar, t_end, self.timed("department.dispatch", dispatcher))
            self.calendar_leftover += len(calendar)
            return result
        return self.timed("kernel.run_until", functools.wraps(run_until)(wrapper))

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr, make):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install_spans(self, m):
        self.patch(m.config, "load_config", lambda f: self.spanned("config_load", f))
        self.patch(m.experiments, "run_replication", lambda f: self.spanned(
            "replication", f, lambda config, **kw: {"department": config.label,
                                                    "seed": kw.get("seed")}))
        self.patch(m.experiments, "save_results", lambda f: self.spanned("csv_write", f))
        self.patch(m.cli, "load_results", lambda f: self.spanned("load_results", f))
        self.patch(m.cli, "anova_two_way", lambda f: self.spanned("anova", f))
        self.patch(m.cli, "levene_test", lambda f: self.spanned("levene", f))
        self.patch(m.cli, "tukey_hsd", lambda f: self.spanned("tukey", f))
        self.patch(m.stats, "studentized_range_upper_tail",
                   lambda f: self.timed("stats.range_tail", f))

    def install_hot(self, m):
        self.patch(m.kernel.RngStream, "uniform", lambda f: self.timed("kernel.uniform", f))
        self.patch(m.kernel.EventCalendar, "schedule",
                   lambda f: self.timed("kernel.schedule", f))
        self.patch(m.kernel.EventCalendar, "run_until", self.timed_run_until)
        for owner in (m.department, m.queueing):
            self.patch(owner, "sample_triangular",
                       lambda f: self.timed("sampling.triangular", f))
        self.patch(m.department, "sample_interarrival",
                   lambda f: self.timed("sampling.interarrival", f))
        self.patch(m.queueing.ServiceQueue, "remove", lambda f: self.probed(
            "queueing.remove", f, lambda queue, entry: len(queue.entries)))
        self.patch(m.queueing.ServiceQueue, "pop_first_servable",
                   lambda f: self.timed("queueing.pop_first_servable", f))
        self.patch(m.department, "resolve_refund_path",
                   lambda f: self.timed("queueing.refund_path", f))
        self.patch(m.agents.CustomerAgent, "transition",
                   lambda f: self.timed("agents.transition", f))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def snapshot(modules):
    """Every attribute of each module and of each class it defines."""
    snap = {}
    for mod in modules:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cname, cvalue in vars(value).items():
                    snap[(mod.__name__, f"{name}.{cname}")] = cvalue
    return snap


def changed_attributes(before, after):
    # copyreg caches __slotnames__ on a class the first time an instance is
    # pickled (the process pool does so); that is not a patch.
    missing = object()
    return sorted(".".join(k) for k in before.keys() | after.keys()
                  if before.get(k, missing) is not after.get(k, missing)
                  and not (k not in before and k[1].endswith(".__slotnames__")))


def clock_overhead_ns(samples=20000):
    """Mean reading of back-to-back perf_counter_ns() calls."""
    clock = time.perf_counter_ns
    total = 0
    for _ in range(samples):
        t0 = clock()
        total += clock() - t0
    return total / samples


def import_retailsim():
    """Import retailsim from the checkout's src/ and return its modules."""
    sys.path.insert(0, str(bench.SRC))
    mods = {name: importlib.import_module(f"retailsim.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if bench.SRC.resolve() not in origin.parents:
        raise RuntimeError(f"retailsim imported from {origin}, not from {bench.SRC}")
    return SimpleNamespace(**mods)


def parse_importtime(text):
    """(retailsim.cli, scipy) cumulative import seconds from -X importtime output.

    importtime prints children before their parent; walked backwards, each
    line follows its ancestors, so a scipy line counts only when no scipy
    line encloses it.
    """
    entries = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1])))
    cli_us = next(us for _, name, us in entries if name == "retailsim.cli")
    scipy_us = 0
    ancestors = []
    for depth, name, us in reversed(entries):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(ancestors):
            scipy_us += us
        ancestors.append(is_scipy)
    return cli_us / 1e6, scipy_us / 1e6


def import_times():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import retailsim.cli"],
        cwd=bench.ROOT, env=bench.cli_env(), capture_output=True, text=True,
        timeout=bench.COMMAND_TIMEOUT_S, check=True,
    )
    return parse_importtime(proc.stderr)


def rows_ok(rows):
    return all(r.metrics.customers_entered == r.metrics.customers_left
               and r.metrics.overall_satisfaction == r.metrics.satisfaction_ledger_sum
               for r in rows)


def traced_run(workload, seed, report, digests):
    """Run the workload's traced pass; returns the per-layer metrics."""
    m = import_retailsim()
    modules = [getattr(m, name) for name in MODULES]
    tracer = Tracer(f"{workload}-seed{seed}")
    before = snapshot(modules)
    try:
        metrics, detail = _phases(m, tracer, workload, seed, report, digests)
    finally:
        tracer.restore()
    changed = changed_attributes(before, snapshot(modules))
    report.attempt(not changed)
    spans_file = bench.WORK / f"spans-{workload}-seed{seed}.jsonl"
    tracer.dump(spans_file)
    report.extra = {**detail, "changed_attributes": changed, "spans_file": str(spans_file),
                    "aggregates": tracer.agg}
    return metrics


def _load_configs(m, paths):
    configs = {}
    for path in paths:
        config = m.config.load_config(str(path))
        configs[config.label] = config
    return configs


def _phases(m, tracer, workload, seed, report, digests):
    nproc = bench.NPROC
    short_paths = bench.write_short_configs()
    full_paths = [m.cli.resolve_config_path(name) for name in bench.PACKAGED_CONFIGS]
    dept_keys = {}
    for name, path in zip(bench.PACKAGED_CONFIGS, full_paths):
        dept_keys[m.config.load_config(path).label] = name.split("_", 1)[1]
    analyze_inputs = {}

    if workload == "analyze":
        sims = [(exp, bench.ANALYZE_INPUT["reps"], bench.ANALYZE_INPUT["days"])
                for exp in bench.EXPERIMENTS]
    else:
        experiment = bench.SWEEPS[workload]["experiment"]
        sims = [(experiment, SIM_REPS, bench.FULL_DAYS)]
        # The statistics layer reads the same 200-row input the analyze workload uses.
        rows = m.experiments.run_sweep(
            experiment, _load_configs(m, short_paths),
            replications=bench.ANALYZE_INPUT["reps"], base_seed=seed)
        path = bench.WORK / f"traced-input-{experiment}.csv"
        m.experiments.save_results(rows, path)
        report.attempt(rows_ok(rows) and digests.ok(
            bench.sweep_key(experiment, bench.ANALYZE_INPUT["reps"],
                            bench.ANALYZE_INPUT["days"]), bench.sha256_file(path)))
        analyze_inputs[experiment] = path

    with tracer.span("workload", workload=workload, seed=seed):
        tracer.install_spans(m)
        with tracer.span("config"):
            for _ in range(CONFIG_LOADS):
                full = _load_configs(m, full_paths)
            configs = {bench.FULL_DAYS: full,
                       bench.ANALYZE_INPUT["days"]: _load_configs(m, short_paths)}
        tracer.restore()

        passes = {}
        for label, jobs, installs in (("parallel", nproc, ()),
                                      ("untraced", 1, (tracer.install_spans,)),
                                      ("traced", 1, (tracer.install_spans,
                                                     tracer.install_hot))):
            for install in installs:
                install(m)
            with tracer.span(f"sweep.{label}", jobs=jobs) as sid:
                t0 = time.perf_counter()
                rows = [m.experiments.run_sweep(exp, configs[days], replications=reps,
                                                base_seed=seed, jobs=jobs)
                        for exp, reps, days in sims]
                passes[label] = (rows, time.perf_counter() - t0, sid)
            tracer.restore()

        reference = passes["untraced"][0]
        for label in ("parallel", "traced"):
            for ref_rows, rows in zip(reference, passes[label][0]):
                for a, b in zip(ref_rows, rows):
                    report.attempt(a == b)
                report.attempt(len(ref_rows) == len(rows))
        for rows in reference:
            report.attempt(rows_ok(rows))

        tracer.install_spans(m)
        with tracer.span("csv") as csv_sid:
            for (exp, reps, days), rows in zip(sims, reference):
                path = bench.WORK / f"traced-{exp}.csv"
                digest = set()
                for _ in range(CSV_WRITES):
                    m.experiments.save_results(rows, path)
                    digest.add(bench.sha256_file(path))
                report.attempt(len(digest) == 1 and digests.ok(
                    bench.sweep_key(exp, reps, days), digest.pop()))
                if workload == "analyze":
                    analyze_inputs[exp] = path

        out = bench.WORK / "traced-analysis.csv"
        metric_names = m.department.METRIC_FIELDS
        for k, metric in enumerate(metric_names):
            exp = list(analyze_inputs)[k % len(analyze_inputs)]
            if out.exists():
                out.unlink()
            with tracer.span("analyze", metric=metric, experiment=exp):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = m.cli.main(["analyze", "--results", str(analyze_inputs[exp]),
                                     "--metric", metric, "--out", str(out)])
            report.attempt(rc == 0 and out.exists() and digests.ok(
                f"analysis.{exp}.{metric}", bench.sha256_file(out)))
        tracer.restore()

    imports = [import_times() for _ in range(IMPORTTIME_RUNS)]

    agg = tracer.agg
    clock_ns = clock_overhead_ns()

    def calls(name):
        return agg.get(name, [0, 0, 0])[0]

    def per_call_ns(name):
        n, total, _ = agg.get(name, [0, 0, 0])
        return total / n - clock_ns if n else 0.0

    def self_s(name):
        _, total, child = agg.get(name, [0, 0, 0])
        return (total - child) / 1e9

    def span_ms(name, parent=None):
        values = tracer.durations(name, parent)
        return statistics.median(values) * 1e3 if values else 0.0

    untraced_sid = passes["untraced"][2]
    traced_sid = passes["traced"][2]
    rep_untraced = [(s["department"], (s["end_ns"] - s["start_ns"]) / 1e9)
                    for s in tracer.spans
                    if s["name"] == "replication" and s["parent"] == untraced_sid]
    untraced_total = sum(d for _, d in rep_untraced)
    traced_total = sum(tracer.durations("replication", traced_sid))
    replications = len(rep_untraced)
    scheduled = calls("kernel.schedule")
    dispatched = calls("department.dispatch")
    removes = calls("queueing.remove")

    def dept_mean(key):
        values = [d for label, d in rep_untraced if dept_keys[label] == key]
        return statistics.mean(values)

    metrics = {
        "kernel.uniform_ns": per_call_ns("kernel.uniform"),
        "kernel.schedule_ns": per_call_ns("kernel.schedule"),
        "kernel.loop_self_s": self_s("kernel.run_until") / replications,
        "kernel.events_scheduled": scheduled,
        "kernel.events_dispatched": dispatched,
        "kernel.stale_ratio": (scheduled - dispatched - tracer.calendar_leftover) / scheduled,
        "sampling.triangular_ns": per_call_ns("sampling.triangular"),
        "sampling.interarrival_ns": per_call_ns("sampling.interarrival"),
        "sampling.draws": calls("kernel.uniform"),
        "queueing.reneges": removes,
        "queueing.remove_us": per_call_ns("queueing.remove") / 1e3,
        "queueing.remove_scan_mean": (tracer.probes["queueing.remove"][0] / removes
                                      if removes else 0.0),
        "queueing.pop_first_servable_us": per_call_ns("queueing.pop_first_servable") / 1e3,
        "queueing.refund_paths": calls("queueing.refund_path"),
        "agents.transitions": calls("agents.transition"),
        "agents.transition_ns": per_call_ns("agents.transition"),
        "department.replication_s.atv": dept_mean("atv"),
        "department.replication_s.ww": dept_mean("ww"),
        "department.events_per_s": dispatched / untraced_total,
        "department.handler_self_s": self_s("department.dispatch") / replications,
        "config.load_ms": span_ms("config_load"),
        "experiments.parallel_speedup": passes["untraced"][1] / passes["parallel"][1],
        "experiments.save_results_ms": span_ms("csv_write", csv_sid),
        "experiments.load_results_ms": span_ms("load_results"),
        "stats.anova_ms": span_ms("anova"),
        "stats.levene_ms": span_ms("levene"),
        "stats.tukey_ms": span_ms("tukey"),
        "stats.range_tail_ms": per_call_ns("stats.range_tail") / 1e6,
        "cli.import_s": statistics.median(cli_s for cli_s, _ in imports),
        "cli.scipy_import_s": statistics.median(sc for _, sc in imports),
        "trace_overhead": traced_total / untraced_total,
    }
    detail = {
        "replications": replications,
        "clock_overhead_ns": clock_ns,
        "calendar_leftover": tracer.calendar_leftover,
        "sweep_wall_s": {label: p[1] for label, p in passes.items()},
        "import_times_s": imports,
    }
    return metrics, detail
