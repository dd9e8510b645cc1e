#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-scale smoke run of every workload and
one deliberately corrupted output per correctness check.

Run from anywhere:  python3 perfbench/test_perfbench.py
(builds the benchmark first if needed; about a minute after the build).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("cold_asg", "live")
# Layers cold_asg does not exercise: refresh, the gate and the durable
# pipeline state belong to live. They read 0 there.
COLD_UNEXERCISED = {
    "core.refresh_s", "core.dirty_regions", "core.clean_regions",
    "core.warm_attempts", "core.warm_accept_ratio", "metrics.ans_s",
    "core.align_s", "core.cache_save_s", "pipeline.journal_save_s",
    "pipeline.journal_bytes",
}
# Per-layer metrics that may be 0 or negative where exercised: differences
# of medians, and Lanczos restarts (the tiny cities take the dense solver).
MAY_BE_ZERO = {"trace.unexplained_s", "trace.overhead_s",
               "linalg.lanczos_restarts"}


def run(workload, trace=0, corrupt=None, cwd=ROOT, seconds=1):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "3",
               "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    if corrupt:
        command += ["--corrupt", corrupt]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_benchmark_json_workloads_exist(self):
        names = {w["name"] for w in self.spec["workloads"]}
        self.assertEqual(names, set(WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, trace=trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        if trace == 1 and workload == "cold_asg" and \
                                name in COLD_UNEXERCISED:
                            self.assertEqual(m["value"], 0, name)
                        elif trace == 0 or name not in MAY_BE_ZERO:
                            self.assertGreater(m["value"], 0, name)


class CorruptionTest(unittest.TestCase):
    """Every correctness check must fail on a corrupted output."""

    CASES = (
        ("cold_asg", "label-range", "cold-partition-labels-valid"),
        ("cold_asg", "label-disconnect", "cold-partition-connected"),
        ("cold_asg", "thread-label", "one-and-two-thread-cuts-identical"),
        ("cold_asg", "decomp-label",
         "traced-decomposition-equals-partitioner"),
        ("cold_asg", "served-answer",
         "served-answers-match-direct-snapshot-api"),
        ("live", "snapshot-byte", "replay-snapshot-bytes-equal-pipeline"),
        ("live", "replay-ans", "replay-ans-churn-equal-pipeline"),
        ("live", "served-answer",
         "served-answers-match-direct-snapshot-api"),
    )

    def test_each_check_fails_on_corruption(self):
        for workload, corrupt, check in self.CASES:
            with self.subTest(workload=workload, corrupt=corrupt):
                done = run(workload, corrupt=corrupt)
                self.assertEqual(done.returncode, 1, done.stderr)
                self.assertFalse(result_of(done)["correct"])
                self.assertIn(f"'{check}' FAILED", done.stderr)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/ cannot build:
        # the run must fail without printing a result.
        bare = os.path.join(ROOT, ".bench_build", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, RUN, "--workload", "cold_asg", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
