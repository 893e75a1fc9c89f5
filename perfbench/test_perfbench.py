#!/usr/bin/env python3
"""The benchmark's own test.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

It builds the benchmark if needed (see run.py), makes short runs of every
workload BENCHMARK.json lists through the steadiness command's smoke mode,
checks the shape of traced and untraced results (paper_control's too)
against BENCHMARK.json, and checks that the
benchmark refuses to run where the runtime's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def result(r):
    return json.loads(r.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_smoke_every_workload(self):
        r = subprocess.run([sys.executable, os.path.join(HERE, "steady.py"), "--smoke"],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_untraced_run_reports_end_to_end_metrics(self):
        # paper_control is not in BENCHMARK.json, so the smoke test skips it.
        for w in ("rpc_verbs", "paper_control"):
            r = run(w, 0)
            self.assertEqual(r.returncode, 0, r.stderr)
            res = result(r)
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(set(res["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
            for m in SPEC["end_to_end"]:
                got = res["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertGreater(got["value"], 0)

    def test_traced_run_reports_per_layer_metrics(self):
        for w in ("conn_churn", "paper_control"):
            r = run(w, 1)
            self.assertEqual(r.returncode, 0, r.stderr)
            res = result(r)
            self.assertTrue(res["correct"], r.stdout[-2000:])
            self.assertEqual(set(res["metrics"]), {m["name"] for m in SPEC["per_layer"]})
            self.assertIn("trace_overhead_pct", r.stdout)
            trace = os.path.join(BUILD, "perfbench-trace-%s.json" % w)
            with open(trace) as f:
                self.assertGreater(len(json.load(f)["traceEvents"]), 0)

    def test_refuses_without_runtime_sources(self):
        bare = os.path.join(BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            r = run("rpc_small", 0, cwd=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
