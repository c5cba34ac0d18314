"""Smoke self-test of the benchmark at tiny sizes; runs in seconds.

    python3 perfbench/selftest.py

Checks that every workload named in BENCHMARK.json exists and, run with
both --trace values, passes its checks and emits exactly the metrics
BENCHMARK.json names, each with its unit; and that the benchmark exits
non-zero without a result when the program's sources are missing.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

run.import_program()
import measure  # noqa: E402 - needs the program on sys.path
from plan import WORKLOADS  # noqa: E402

TINY = {"wellposed-128": {"res": 32, "frames": 2},
        "degenerate-48": {"res": 16, "frames": 1},
        "train-32": {"res": 16, "frames": 4, "epochs": 2}}


def benchmark_spec():
    with open(os.path.join(measure.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.spec = benchmark_spec()

    def test_workloads_match(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(WORKLOADS))
        self.assertEqual(sorted(TINY), sorted(WORKLOADS))

    def test_metrics_emitted_with_units(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for name, sizes in TINY.items():
                with self.subTest(workload=name, trace=trace):
                    wl = dataclasses.replace(WORKLOADS[name], **sizes)
                    result, lines = measure.run(wl, seed=1, seconds=0.01, trace=trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for k, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), k)

    def test_fails_without_program_sources(self):
        bare = os.path.join(measure.STATE, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(os.path.join(measure.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(measure.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "train-32", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
