#!/usr/bin/env python3
"""Self-test of the benchmark: every workload in smoke mode, untraced and
traced, must emit exactly the metrics BENCHMARK.json names, with their units,
and a correct result; and run.py must refuse to run without the repository
sources.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_spec()
        proc = run([RUN, "--workload", workload, "--seed", "3", "--trace",
                    str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines[-2].startswith("env: "))
        env = json.loads(lines[-2][len("env: "):])
        for key in ("cpu", "nproc", "compiler", "build_type", "simd_isa",
                    "host_loop_ms", "steal_pct"):
            self.assertIn(key, env)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_serve_cnn_sim(self):
        self.check("serve-cnn-sim", 0)
        self.check("serve-cnn-sim", 1)

    def test_serve_lenet_ref_open(self):
        self.check("serve-lenet-ref-open", 0)
        self.check("serve-lenet-ref-open", 1)

    def test_zoo_resnet50(self):
        self.check("zoo-resnet50", 0)
        self.check("zoo-resnet50", 1)


class RefusalTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark's files.
        bare = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(["perfbench/run.py", "--workload", "serve-cnn-sim",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
