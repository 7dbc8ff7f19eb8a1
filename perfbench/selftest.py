#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

The file name keeps pytest's default collection from picking these up with
the repository's own test suite.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [n for n, *_ in bench.END_TO_END + bench.PER_LAYER] + list(bench.WORKLOADS)
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_definitions(self):
        path = bench.HERE.parent / "BENCHMARK.json"
        self.assertEqual(json.loads(path.read_text(encoding="utf-8")),
                         bench.benchmark_manifest())

    def test_traced_run_reports_every_per_layer_metric(self):
        source = (bench.HERE / "tracer.py").read_text(encoding="utf-8")
        for name, *_ in bench.PER_LAYER:
            self.assertIn(f'"{name}":', source)


class Tail(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        for n in range(1, 500):
            k = bench.tail_index(n)
            if n < 11:
                self.assertIsNone(k)
                continue
            self.assertEqual(n - 1 - k, 10, n)

    def test_tail_value_and_percentile(self):
        value, pct = bench.tail(list(range(40, 0, -1)))
        self.assertEqual(value, 30)
        self.assertEqual(pct, 75.0)
        self.assertEqual(bench.tail([1.0] * 10), (None, None))


class ImportTime(unittest.TestCase):
    def test_scipy_counted_once_at_its_outermost_line(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |         scipy",
            "import time:        50 |        150 |       scipy.special",
            "import time:        20 |        170 |     retailsim.stats",
            "import time:        10 |        180 |   retailsim.experiments",
            "import time:        30 |        400 | retailsim.cli",
        ])
        self.assertEqual(tracer.parse_importtime(text), (400e-6, 150e-6))


class Wrappers(unittest.TestCase):
    def test_traced_replication_matches_and_attributes_are_restored(self):
        m = tracer.import_retailsim()
        modules = [getattr(m, name) for name in tracer.MODULES]
        config = m.config.load_config(m.cli.resolve_config_path("dept_ww"))
        config = dataclasses.replace(config, horizon=m.config.Horizon(600, 1))
        plain = m.department.run_replication(config, seed=5)

        t = tracer.Tracer("selftest")
        before = tracer.snapshot(modules)
        t.install_spans(m)
        t.install_hot(m)
        self.assertTrue(tracer.changed_attributes(before, tracer.snapshot(modules)))
        try:
            traced = m.experiments.run_replication(config, seed=5)
        finally:
            t.restore()
        self.assertEqual(plain, traced)
        self.assertEqual(tracer.changed_attributes(before, tracer.snapshot(modules)), [])
        self.assertEqual(t.agg["kernel.run_until"][0], 1)
        self.assertGreater(t.agg["kernel.schedule"][0], t.agg["department.dispatch"][0])
        self.assertGreater(t.agg["kernel.uniform"][0], 0)
        self.assertEqual([s["name"] for s in t.spans], ["replication"])


if __name__ == "__main__":
    unittest.main()
