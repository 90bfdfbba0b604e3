#!/usr/bin/env python3
"""Tests of the benchmark's result schema and percentile helper.

    python3 perfbench/test_run.py

The schema tests check run.py's validation against BENCHMARK.json; the
last test builds and runs the C++ percentile-helper checks
(perfbench_stats_test) in the benchmark's build tree.
"""

import json
import os
import subprocess
import unittest

import run


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_for(expected, **overrides):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": 1.25, "unit": unit}
                          for name, unit in expected.items()}}
    result.update(overrides)
    return result


class SpecTest(unittest.TestCase):
    def test_workloads_and_setup_metric(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in
                                               spec["end_to_end"])}])

    def test_bounds_and_directions(self):
        spec = load_spec()
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25, metric["name"])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn(metric["better"], ("higher", "lower"))


class ValidateTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()
        self.e2e = run.expected_metrics(self.spec, trace=False)
        self.layers = run.expected_metrics(self.spec, trace=True)

    def test_complete_results_pass(self):
        self.assertEqual(run.validate(result_for(self.e2e), self.e2e), [])
        self.assertEqual(run.validate(result_for(self.layers), self.layers),
                         [])

    def test_missing_metric_fails(self):
        result = result_for(self.e2e)
        del result["metrics"]["setup_s"]
        self.assertTrue(run.validate(result, self.e2e))

    def test_wrong_mode_fails(self):
        self.assertTrue(run.validate(result_for(self.layers), self.e2e))

    def test_wrong_unit_fails(self):
        result = result_for(self.e2e)
        result["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate(result, self.e2e))

    def test_bad_counts_fail(self):
        for bad in ({"attempted": 0}, {"attempted": 1.5}, {"failed": -1},
                    {"correct": 1}):
            self.assertTrue(run.validate(result_for(self.e2e, **bad),
                                         self.e2e), bad)

    def test_extra_key_fails(self):
        result = result_for(self.e2e)
        result["notes"] = "x"
        self.assertTrue(run.validate(result, self.e2e))

    def test_non_finite_value_fails(self):
        result = result_for(self.e2e)
        result["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(run.validate(result, self.e2e))


class PercentileHelperTest(unittest.TestCase):
    def test_cpp_checks_pass(self):
        binary = run.build(run.build_dir(), target="perfbench_stats_test")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
