#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout (the first test builds the driver, as the
benchmark does). Takes about a minute after the build:
  * BENCHMARK.json keeps to the benchmark's file contract and names
    exactly the metrics perfbench/run.py prints;
  * every workload runs at its seconds-long smoke size with every check
    passing, prints every metric, and repeats its exact work counts;
  * each check fails when its input record is corrupted (the driver's
    --selftest: a GFC deadlock injected into a trial record, one sweep
    verdict flipped, and so on);
  * without the gfc sources next to it the benchmark exits nonzero and
    prints no result.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

spec = importlib.util.spec_from_file_location("run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def bench_run(workload, *extra, seed=7, trace=1, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def record(workload, seed, trace):
    path = os.path.join(ROOT, ".bench_out",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertEqual(tuple(names), run.WORKLOADS)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        metrics = b["end_to_end"] + b["per_layer"]
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        all_names = names + [m["name"] for m in metrics]
        self.assertEqual(len(all_names), len(set(all_names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_metrics_match_runner(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]},
                         run.PER_LAYER)


class Workloads(unittest.TestCase):
    def check_run(self, workload):
        r = bench_run(workload, "--selftest")
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], run.PER_LAYER[name])
        # Every check's self-test: clean records pass, each corruption
        # trips the check it targets.
        selftest = json.loads(lines[-2])
        self.assertEqual(selftest[0]["corruption"], "none")
        self.assertGreater(len(selftest), 5)
        for case in selftest:
            self.assertTrue(case["ok"], case)

        rec = record(workload, 7, 1)
        self.assertTrue(all(c["ok"] for c in rec["checks"]), rec["checks"])

        # Untraced: the end-to-end metrics, all nonzero; the same seed
        # gives the same exact work counts.
        plain = bench_run(workload, trace=0)
        self.assertEqual(plain.returncode, 0, plain.stderr[-2000:])
        result = json.loads(plain.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)
        again = record(workload, 7, 0)["detail"]
        for key in ("sim_events_per_round", "cycles_per_round",
                    "trials_per_round", "combos_per_round"):
            if key in rec["detail"]:
                self.assertEqual(rec["detail"][key], again[key], key)

    def test_k16_timeline(self):
        self.check_run("k16_timeline")

    def test_k4_campaign(self):
        self.check_run("k4_campaign")

    def test_k8_failure_sweep(self):
        self.check_run("k8_failure_sweep")

    def test_second_seed(self):
        r = bench_run("k4_campaign", seed=90001, trace=0)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        self.assertTrue(json.loads(r.stdout.strip().splitlines()[-1])["correct"])


class WithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "k4_campaign", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
