#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/test_run.py

The classifier tests are pure Python; the others build hgc_perfbench the
way run.py does and run it briefly.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class ClassifierTest(unittest.TestCase):
    STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_unchanged_is_ok(self):
        new = [100.2, 100.8, 99.4, 100.1, 99.9]
        self.assertEqual(run.classify(self.STEADY, new, 0.1, "lower"), "ok")

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        slower = [x * 1.2 for x in self.STEADY]
        self.assertEqual(run.classify(self.STEADY, slower, 0.1, "lower"),
                         "regression")
        fewer = [x * 0.8 for x in self.STEADY]
        self.assertEqual(run.classify(self.STEADY, fewer, 0.1, "higher"),
                         "regression")

    def test_worse_within_the_bound_is_ok(self):
        slower = [x * 1.05 for x in self.STEADY]
        self.assertEqual(run.classify(self.STEADY, slower, 0.1, "lower"), "ok")

    def test_better_by_more_than_the_bound_is_improved(self):
        faster = [x * 0.8 for x in self.STEADY]
        self.assertEqual(run.classify(self.STEADY, faster, 0.1, "lower"),
                         "improved")
        more = [x * 1.2 for x in self.STEADY]
        self.assertEqual(run.classify(self.STEADY, more, 0.1, "higher"),
                         "improved")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy_old = [80.0, 100.0, 120.0, 90.0, 110.0]
        noisy_new = [85.0, 130.0, 100.0, 125.0, 95.0]
        self.assertEqual(run.classify(noisy_old, noisy_new, 0.1, "lower"),
                         "unresolved")

    def test_noisy_but_separated_sides_still_resolve(self):
        noisy_old = [80.0, 100.0, 120.0, 90.0, 110.0]
        far_worse = [x + 100.0 for x in noisy_old]
        self.assertEqual(run.classify(noisy_old, far_worse, 0.1, "lower"),
                         "regression")
        far_better = [x - 70.0 for x in noisy_old]
        self.assertEqual(run.classify(noisy_old, far_better, 0.1, "lower"),
                         "improved")

    def test_compare_counts_regressions_per_workload(self):
        spec = {"end_to_end": [
            {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.1}]}

        def write(path, values):
            with open(path, "w", encoding="utf-8") as f:
                for v in values:
                    f.write(json.dumps({
                        "workload": "paper", "trace": 0,
                        "metrics": {"cpu_s": {"value": v, "unit": "s"}}}))
                    f.write("\n")

        with tempfile.TemporaryDirectory() as tmp:
            old, new = os.path.join(tmp, "old"), os.path.join(tmp, "new")
            write(old, self.STEADY)
            write(new, [x * 1.3 for x in self.STEADY])
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    self.assertEqual(run.compare(old, new, spec), 1)
                    self.assertEqual(run.compare(old, old, spec), 0)
                finally:
                    sys.stdout = stdout


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.load_spec()

    def run_binary(self, *args):
        proc = subprocess.run([self.binary, *args], stdout=subprocess.PIPE,
                              text=True, check=True)
        return proc.stdout.splitlines()

    def test_emitted_metric_catalog_matches_benchmark_json(self):
        catalog = {}
        for line in self.run_binary("--list-metrics"):
            name, unit, mode = line.split()
            catalog.setdefault(mode, {})[name] = unit
        self.assertEqual(catalog["end_to_end"],
                         run.expected_metrics(self.spec, 0))
        self.assertEqual(catalog["per_layer"],
                         run.expected_metrics(self.spec, 1))

    def test_validate_rejects_a_metric_set_that_differs(self):
        metrics = {name: {"value": 1.0, "unit": unit} for name, unit in
                   run.expected_metrics(self.spec, 0).items()}
        record = {"workload": "paper", "trace": 0, "metrics": metrics}
        run.validate(record, self.spec)
        metrics["renamed"] = metrics.pop("cpu_s")
        with self.assertRaises(ValueError):
            run.validate(record, self.spec)

    def test_seed_changes_the_grid_but_not_the_metric_set(self):
        def grids(seed):
            lines = self.run_binary("--describe", "--workload", "all",
                                    "--seed", str(seed))
            return {g["workload"]: g for g in map(json.loads, lines)}

        one, two = grids(1), grids(2)
        for workload in run.WORKLOADS:
            self.assertEqual(one[workload]["cells"], two[workload]["cells"])
            self.assertNotEqual(one[workload]["grid_hash"],
                                two[workload]["grid_hash"])

        for trace in (0, 1):
            metric_sets = []
            for seed in (1, 2):
                _, records = run.run_binary(self.binary, ["train"], seed, 0,
                                            trace)
                record = records[0]
                self.assertTrue(record["correct"], record)
                run.validate(record, self.spec)
                metric_sets.append({name: m["unit"] for name, m in
                                    record["metrics"].items()})
            self.assertEqual(metric_sets[0], metric_sets[1])


if __name__ == "__main__":
    unittest.main()
