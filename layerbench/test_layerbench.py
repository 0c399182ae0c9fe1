#!/usr/bin/env python3
"""Tests of the layered host-time benchmark itself.

    python3 layerbench/test_layerbench.py

Run from anywhere; each case drives layerbench/run.py (which builds the binary on
first use) with one-second runs, so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "layerbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra, cwd=ROOT, runner=RUN):
    r = subprocess.run([sys.executable, str(runner), "--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), *extra],
                       cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=600, check=False)
    return r


def result_of(r):
    return json.loads(r.stdout.strip().split("\n")[-1])


class LayerbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def short_run(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.runs:
            cls.runs[key] = run_bench(workload, trace)
        return cls.runs[key]

    def test_emitted_metric_names_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            r = self.short_run("serving", trace)
            self.assertEqual(r.returncode, 0, r.stderr)
            got = {k: v["unit"] for k, v in result_of(r)["metrics"].items()}
            self.assertEqual(got, want, section)

    def test_short_run_of_each_workload_emits_every_metric_and_verifies(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = self.short_run(workload, trace)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    res = result_of(r)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), {m["name"] for m in SPEC[section]})
                    self.assertIn("check_invariants=0 tlb=1 tlb_verify=0", r.stdout)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
                    else:
                        self.assertIn(f"attribution ({workload})", r.stdout)

    def test_workloads_split_the_layers(self):
        def layer(workload, name):
            return result_of(self.short_run(workload, 1))["metrics"][name]["value"]

        self.assertAlmostEqual(layer("imatmult", "machine.run_length"), 1.0, places=3)
        self.assertGreater(layer("gfetch", "machine.run_length"), 100)
        self.assertGreaterEqual(layer("gfetch", "numa.moves"),
                                10 * layer("imatmult", "numa.moves"))

    def test_determinism_check_flags_a_pass_with_another_serving_seed(self):
        r = run_bench("serving", 0, "--perturb-seed", "2")
        self.assertEqual(r.returncode, 0, r.stderr)
        res = result_of(r)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertIn("pass 2: ", r.stdout)
        self.assertIn("FAILED: AppResult", r.stdout)

    def test_probe_only_mode_prints_every_probe_and_no_result(self):
        r = run_bench("gfetch", 0, "--probes", "1")
        self.assertEqual(r.returncode, 0, r.stderr)
        probes = {line.split()[0]: float(line.split()[1])
                  for line in r.stdout.splitlines()[1:]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        self.assertTrue(set(probes) <= per_layer, set(probes) - per_layer)
        self.assertIn("threads.dispatch_ns", probes)
        self.assertIn("numa.replication_ns", probes)
        self.assertTrue(all(v > 0 for v in probes.values()), probes)
        self.assertNotIn('"metrics"', r.stdout)

    def test_fails_without_the_simulator_sources(self):
        # A checkout holding only BENCHMARK.json and the benchmark's own files.
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "layerbench", bare / "layerbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            r = run_bench("gfetch", 0, cwd=bare, runner=bare / "layerbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
