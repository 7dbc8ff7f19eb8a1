#!/usr/bin/env python3
"""retailsim benchmark: sweep and analyze workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_cashiers --seed 1 --seconds 30 --trace 0

With --trace 0 the program is driven from outside, one `python -m retailsim`
command at a time, and the end-to-end metrics are reported. With --trace 1 a
separate in-process run wraps the public functions of each module and reports
the per-layer metrics (see perfbench/README.md). Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --write-benchmark-json   # regenerate BENCHMARK.json
    python3 perfbench/selftest.py                     # benchmark self-tests
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bench


def fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_human(workload, seed, trace, metrics, report, prov):
    print(f"workload: {workload}  seed: {seed}  trace: {trace}")
    for name, value in metrics.items():
        print(f"{name}: {fmt(value)} {bench.UNITS[name]}")
    if not trace:
        extra = report.extra
        if workload == "analyze":
            n = extra["analyze_calls"]
            print(f"analyze_ms_p50: {fmt(extra['analyze_ms_p50'])} ms (n={n})")
            print(f"analyze_ms_tail: {fmt(extra['analyze_ms_tail'])} ms "
                  f"(p{fmt(extra['analyze_tail_percentile'])}, n={n}, "
                  f"10 samples beyond)")
        else:
            print("analyze_ms_p50: n/a ms (no analyze calls in this workload)")
            print("analyze_ms_tail: n/a ms (no analyze calls in this workload)")
    share = report.failed / report.attempted if report.attempted else 1.0
    print(f"failed_share: {fmt(share)} ratio ({report.failed} of {report.attempted} "
          f"operations failed a check)")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store output digests this seed has none for in perfbench/digests.json",
    )
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json from the definitions in bench.py and exit",
    )
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        text = json.dumps(bench.benchmark_manifest(), indent=2) + "\n"
        (bench.HERE.parent / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (bench.SRC / "retailsim" / "__init__.py").is_file():
        print(f"error: no retailsim sources under {bench.SRC}; "
              "run from the repository root", file=sys.stderr)
        return 2

    bench.WORK.mkdir(exist_ok=True)
    prov = bench.provenance(args.seed)
    report = bench.Report()
    digests = bench.DigestCheck(args.seed, record=args.record_digests)
    if args.trace:
        import tracer

        metrics = tracer.traced_run(args.workload, args.seed, report, digests)
    else:
        metrics = bench.run_workload(args.workload, args.seed, args.seconds, report,
                                     digests)
    digests.save()
    prov["loadavg_after"] = list(os.getloadavg())

    result_file = (bench.WORK
                   / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": metrics, "attempted": report.attempted, "failed": report.failed,
        "samples": report.samples, "extra": report.extra, "provenance": prov,
    }, indent=1), encoding="utf-8")
    print_human(args.workload, args.seed, args.trace, metrics, report, prov)
    print(json.dumps({
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": bench.UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
