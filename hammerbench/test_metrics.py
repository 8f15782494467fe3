"""Checks the benchmark command against BENCHMARK.json.

Every metric the file names must be printed, with its unit, by the one
benchmark command, on every workload, and every name must match
[A-Za-z0-9_.-]+. Run from the root of the repository:

    python3 -m unittest hammerbench/test_metrics.py

It builds the benchmark, then runs each workload once untraced and once
traced with --seconds 1 (a few minutes in all).
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(spec, workload, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


class BenchmarkMetrics(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[group]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_every_metric_is_printed_with_its_unit(self):
        spec = load_spec()
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run(spec, workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = result["metrics"]
                    wanted = {m["name"]: m["unit"] for m in spec[group]}
                    self.assertEqual(set(printed), set(wanted))
                    for name, unit in wanted.items():
                        self.assertEqual(printed[name]["unit"], unit, name)
                        self.assertIsInstance(printed[name]["value"], (int, float), name)


if __name__ == "__main__":
    sys.exit(unittest.main())
