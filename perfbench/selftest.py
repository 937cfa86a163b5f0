#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

They build the benchmark, run its native checks of the tail-percentile rule,
the failure_ratio accounting and the span self-time sum, smoke-run every
workload at tiny size (untraced and traced) against the result-line contract
of BENCHMARK.json, and check compare.py's verdicts.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
SMOKE_RESULTS = os.path.join(run.ROOT, ".bench_results", "selftest")


class Native(unittest.TestCase):
    def test_tail_rule_failure_ratio_and_self_times(self):
        binary = run.build()
        self.assertIsNotNone(binary, "benchmark does not build")
        done = subprocess.run([binary, "--self-test"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)


class Smoke(unittest.TestCase):
    """Tiny runs, so a broken workload fails in seconds."""

    def smoke(self, workload, trace):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
               "--results", SMOKE_RESULTS]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout)
        line = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(line["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
        with open(os.path.join(SMOKE_RESULTS, workload, "seed7-trace%d.json" % trace)) as f:
            result = json.load(f)
        self.assertEqual(result["seed"], 7)
        for key in ("cpu_model", "nproc", "compiler", "build_type"):
            self.assertIn(key, result["machine"])
        if trace:
            detail = result["detail"]
            total = detail["traced_total_ms"]["value"]
            self.assertGreater(total, 0.0)
            self.assertAlmostEqual(detail["self_sum_ms"]["value"], total, delta=1e-6 * total)
        else:
            for m in declared:
                self.assertGreater(line["metrics"][m["name"]]["value"], 0.0, m["name"])
        return result

    def test_openfoam_static(self):
        for trace in (0, 1):
            self.smoke("openfoam-static", trace)

    def test_lulesh_adapt(self):
        for trace in (0, 1):
            result = self.smoke("lulesh-adapt", trace)
            self.assertIn("adapt.final_policy", result["facts"])

    def test_fleet_stream(self):
        for trace in (0, 1):
            self.smoke("fleet-stream", trace)


class Verdicts(unittest.TestCase):
    def test_worse_beyond_bound(self):
        base = {s: 100.0 + s for s in range(10)}
        new = {s: 120.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "worse")
        self.assertEqual(compare.verdict(new, base, 0.1, "higher"), "worse")

    def test_better_needs_spread_and_pair_wins(self):
        base = {s: 100.0 + s for s in range(10)}
        new = {s: 90.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "better")
        mixed = dict(new)
        mixed[0], mixed[1] = 150.0, 150.0  # loses two of ten pairs
        self.assertEqual(compare.verdict(base, mixed, 0.25, "lower"), "same")

    def test_within_bound_is_same(self):
        base = {s: 100.0 + s for s in range(10)}
        new = {s: 103.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "same")

    def test_wide_spread_is_unresolved(self):
        base = {s: 100.0 * (1 + s % 2) for s in range(10)}
        new = {s: 110.0 * (1 + s % 2) for s in range(10)}
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "unresolved")


if __name__ == "__main__":
    unittest.main()
