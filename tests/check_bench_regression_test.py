#!/usr/bin/env python3
"""Self-test for tools/check_bench_regression.py, the serving perf gate.

Each case writes small synthetic BENCH_serving.json files into a temporary
directory and runs the gate on them: a current run equal to the baseline
passes; a watched metric at 2.1x its baseline fails (the band is 2x); a
watched entry missing from the current run fails; over three runs, one
outlier past the band passes because the gate judges the median; and a
1-shard tier costing more than 1.3x the bare serving loop fails the
within-run router tax.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO_ROOT, "tools", "check_bench_regression.py")

# Every watched serving entry plus both tax inputs, as (name, threads).
BASELINE = {
    ("choose_hint_scalar_ns", 1): 10.0,
    ("serving_ns_per_op", 1): 100.0,
    ("fold_reobserve_ns", 1): 200.0,
    ("refit_setup_locked_ms", 1): 5.0,
    ("sharded_serving_s1r1_ns_per_op", 1): 110.0,
    ("sharded_serving_s4r4_ns_per_op", 4): 120.0,
}


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="bench_gate_")
        self.files = 0

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, metrics):
        """Writes `metrics` as a BENCH_serving.json and returns its path."""
        self.files += 1
        path = os.path.join(self._tmp.name, f"bench_{self.files}.json")
        entries = [{"name": name, "ns_per_op": value, "iterations": 1,
                    "threads": threads}
                   for (name, threads), value in metrics.items()]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"benchmarks": entries}, f)
        return path

    def gate(self, *currents):
        """Runs the gate on the baseline and `currents` (metric dicts)."""
        return subprocess.run(
            [sys.executable, GATE, self.write(BASELINE),
             *(self.write(c) for c in currents)],
            capture_output=True, text=True)

    def with_value(self, key, value):
        current = dict(BASELINE)
        current[key] = value
        return current

    def assert_fails_only_with(self, result, reason):
        self.assertEqual(result.returncode, 1,
                         f"gate should fail:\n{result.stdout}")
        reasons = [line for line in result.stderr.splitlines()
                   if line.startswith("  - ")]
        self.assertEqual(len(reasons), 1, result.stderr)
        self.assertIn(reason, reasons[0])

    def test_run_equal_to_baseline_passes(self):
        result = self.gate(BASELINE)
        self.assertEqual(result.returncode, 0,
                         f"{result.stdout}\n{result.stderr}")
        self.assertIn("perf smoke passed", result.stdout)

    def test_watched_metric_past_the_band_fails(self):
        result = self.gate(self.with_value(("choose_hint_scalar_ns", 1), 21.0))
        self.assert_fails_only_with(
            result, "choose_hint_scalar_ns@1t regressed 2.10x")

    def test_missing_watched_entry_fails(self):
        current = dict(BASELINE)
        del current[("fold_reobserve_ns", 1)]
        result = self.gate(current)
        self.assert_fails_only_with(
            result, "fold_reobserve_ns@1t missing from current run")

    def test_one_outlier_run_passes_on_the_median(self):
        key = ("refit_setup_locked_ms", 1)
        result = self.gate(self.with_value(key, 5.0),
                           self.with_value(key, 30.0),
                           self.with_value(key, 6.0))
        self.assertEqual(result.returncode, 0,
                         f"{result.stdout}\n{result.stderr}")
        self.assertIn("refit_setup_locked_ms@1t: 5.0 -> 6.0 ms (1.20x",
                      result.stdout)
        self.assertIn("median of 3 runs", result.stdout)

    def test_router_tax_over_its_bound_fails(self):
        # 140 / 100 = 1.4x the bare loop against the 1.3x default; the
        # fleet tax (120 / 140) stays under its own bound.
        result = self.gate(
            self.with_value(("sharded_serving_s1r1_ns_per_op", 1), 140.0))
        self.assert_fails_only_with(result, "1-shard router tax 1.40x")


if __name__ == "__main__":
    unittest.main()
