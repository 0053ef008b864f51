#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at a tiny scale through perfbench/run.py (building it
first) and checks that:
  * every metric of BENCHMARK.json prints by name with its unit, in the
    human-readable output and in the result line, for two seeds, and every
    correctness check passes;
  * every per-layer metric is measured on each workload that layers.json
    says it should move, and on at least one workload;
  * a perturbed reference is caught: the run exits non-zero, reports
    correct=false and counts the failure;
  * perfbench/layers.json maps exactly the per-layer metrics of
    BENCHMARK.json to a layer, and BENCHMARK.json keeps the contract's shape;
  * without the engine sources the runner fails without printing a result.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, seed, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "0.05", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          env=env)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, seed, trace):
        proc = run(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        human = "\n".join(lines[:-1])
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(human, r"(?m)^metric %s +\S+ %s +n=\d+$" % (
                re.escape(metric["name"]), re.escape(metric["unit"])))
        measured = {name for name, n in re.findall(
            r"(?m)^metric (\S+) +\S+ +\S+ +n=(\d+)$", human) if int(n) > 0}
        checks = re.findall(r"(?m)^check +\S+ +(\S+)", human)
        self.assertTrue(checks, human)
        self.assertTrue(all(c == "ok" for c in checks), human)
        self.assertRegex(human, r"(?m)^host nproc=\d+ compiler=.* "
                                r"build_type=\w+ seed=%d " % seed)
        self.assertRegex(human, r"(?m)^host commit=\S+$")
        return set(result["metrics"]), measured

    def test_every_metric_prints_and_checks_pass(self):
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        measured_anywhere = set()
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first, measured = self.check_run(workload, 1, trace)
                    second, _ = self.check_run(workload, 2, trace)
                    self.assertEqual(first, second)
                    if trace:
                        measured_anywhere |= measured
                        for name, entry in layers.items():
                            if workload in entry["workloads"]:
                                self.assertIn(name, measured)
        self.assertEqual(set(layers) - measured_anywhere, set())

    def test_perturbed_reference_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 1, 0, "--perturb-reference")
                self.assertNotEqual(proc.returncode, 0, proc.stdout)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertRegex(proc.stdout, r"(?m)^check +\S+ +FAIL")

    def test_without_sources_no_result(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = run(WORKLOADS[0], 1, 0, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_layers_map_every_per_layer_metric(self):
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        self.assertEqual(set(layers), {m["name"] for m in SPEC["per_layer"]})
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for name, entry in layers.items():
            self.assertTrue(entry["layer"], name)
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(entry["workloads"], name)
            self.assertTrue(set(entry["workloads"]) <= set(WORKLOADS), name)
            if not entry["moves"]:
                self.assertIn("note", entry, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
