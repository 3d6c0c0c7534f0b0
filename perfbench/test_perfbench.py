#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py          # from the repository root

Builds gam_perfbench like run.py does, then checks that the decide_single
query stream is a pure function of the seed, that every metric name is
well formed, that a run reports exactly the metrics BENCHMARK.json names
(no more, no fewer) on every workload, traced and untraced, and that the
benchmark refuses to run without the repository sources.  The full-suite
test runs every workload twice with --seconds 1 (about two minutes).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def scratch(name):
    path = os.path.join(run.build_root(), "perfbench-test", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class StreamTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def stream_hash(self, seed):
        out = subprocess.run([self.binary, "--stream-hash", "--seed",
                              str(seed)],
                             stdout=subprocess.PIPE, text=True, check=True)
        return out.stdout.strip()

    def test_same_seed_same_stream(self):
        self.assertEqual(self.stream_hash(7), self.stream_hash(7))

    def test_different_seed_different_stream(self):
        self.assertNotEqual(self.stream_hash(7), self.stream_hash(8))


class NamesTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)

    def test_workloads_match_runner(self):
        self.assertEqual(tuple(w["name"] for w in spec()["workloads"]),
                         run.WORKLOADS)


class OutputTest(unittest.TestCase):
    def run_workload(self, workload, trace):
        out = scratch("%s-%d" % (workload, trace))
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--out", out],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(out, "result.json")) as f:
            raw = json.load(f)["raw"]
        return result, raw

    def test_every_named_metric_and_nothing_else(self):
        s = spec()
        e2e = {m["name"] for m in s["end_to_end"]}
        layers = {m["name"] for m in s["per_layer"]}
        for workload in run.WORKLOADS:
            for trace, declared in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    result, raw = self.run_workload(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), declared)
                    # The binary reports nothing BENCHMARK.json does not
                    # name (setup_s and peak_rss_mb ride along traced).
                    self.assertLessEqual(set(raw["metrics"]), e2e | layers)
                    for name, metric in result["metrics"].items():
                        self.assertRegex(name, NAME_RE)
                        self.assertEqual(set(metric), {"value", "unit"})

    def test_refuses_without_sources(self):
        stripped = scratch("stripped")
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "decide_single", "--seed", "1", "--seconds", "1", "--trace",
             "0"],
            cwd=stripped, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
