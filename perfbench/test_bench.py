#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny input scale.

    python3 perfbench/test_bench.py

Builds ltc_e2e like run.py does, then checks that every workload
emits every named metric with its unit and no failed operation, that the
exact counts repeat under one seed and move under another, that
BENCHMARK.json names what run.py prints, and that the benchmark refuses
to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's runner, imported for its tables)

TINY = "0.02"

# Counts that must repeat exactly for one seed (README.md "Exact counts").
EXACT = ("fs.syncs", "fs.bytes_written", "pool.hit_ratio",
         "pool.evictions_clean", "pool.evictions_dirty", "pool.pages_loaded",
         "store.wal_bytes", "core.case1_ratio")


def run_bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", TINY],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def raw_result(workload, trace):
    with open(os.path.join(run.build_dir(), "result_%s_trace%d.json"
                           % (workload, trace))) as f:
        return json.load(f)


def exact_counts(workload, seed):
    code, lines = run_bench(workload, seed, 0)
    assert code == 0, lines[-5:]
    result = raw_result(workload, 0)
    counts = {name: result["counts"].get(name) for name in EXACT}
    counts["durable_bytes_per_krec"] = (
        result["metrics"]["durable_bytes_per_krec"]["value"])
    counts["topk_precision"] = result["metrics"]["topk_precision"]["value"]
    return counts


class BenchTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, listed in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run_bench(workload, 3, trace)
                    final = json.loads(lines[-1])
                    self.assertEqual(code, 0, lines[-8:])
                    self.assertTrue(final["correct"])
                    self.assertEqual(final["failed"], 0)
                    self.assertGreaterEqual(final["attempted"], 1)
                    self.assertEqual(
                        {n: u for n, u in listed},
                        {n: m["unit"] for n, m in final["metrics"].items()})
                    for name, metric in final["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)
                    result = raw_result(workload, trace)
                    self.assertEqual(
                        result["metrics"]["failed_ops_ratio"]["value"], 0)
                    if trace == 0:
                        report = "\n".join(lines)
                        for name in run.REPORTED:
                            self.assertIn(name, report)
                        for name in run.REPORTED:
                            self.assertIn("unit", result["metrics"][name])

    def test_exact_counts_repeat_per_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = exact_counts(workload, 5)
                again = exact_counts(workload, 5)
                other = exact_counts(workload, 6)
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_benchmark_json_matches_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_refuses_without_library_sources(self):
        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "ingest_zipf", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
