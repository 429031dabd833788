#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

- the open-loop accounting self-test of the benchmark binary (an injected
  stall must raise the latency of every later arrival that queued behind it,
  measured from its due time);
- a seconds-long smoke run of every workload at a tiny size, traced and
  untraced, checking the printed metric names and units against
  BENCHMARK.json, that the verdict gate passed, and that the traced run's
  written spans nest.

Builds the benchmark like run.py does (into $CARGO_TARGET_DIR or
.bench_build at the repository root).
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SMOKE_TXNS = 20000


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.binary = run.build()

    def test_open_loop_accounting(self):
        r = subprocess.run([self.binary, "--selftest"], capture_output=True,
                           text=True, timeout=60)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ok", r.stdout)

    def test_smoke_every_workload(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_smoke(w["name"], trace)

    def check_smoke(self, workload, trace):
        spans = os.path.join(ROOT, ".bench_work", "smoke-%s.tsv" % workload)
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--txns", str(SMOKE_TXNS)]
        if trace:
            cmd += ["--trace-out", spans]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=170)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        if trace:
            self.check_spans(spans)
        out = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(out),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(out["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        # Every metric is also printed by name, with its unit, in the report.
        for m in wanted:
            self.assertRegex(r.stdout, r"\n  %s +\S+ %s " % (
                re.escape(m["name"]), re.escape(m["unit"])))

    def check_spans(self, path):
        """The written spans nest: each child lies inside its parent."""
        with open(path) as f:
            rows = [line.rstrip("\n").split("\t") for line in f][1:]
        os.remove(path)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass
        self.assertTrue(rows)
        start = {}
        for index, parent, _tid, _name, begin, dur in rows:
            start[index] = (int(begin), int(begin) + int(dur))
            if parent != "-1":
                lo, hi = start[parent]
                self.assertGreaterEqual(int(begin), lo)
                self.assertLessEqual(int(begin) + int(dur), hi)

    def test_unknown_workload_fails(self):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "no-such-workload", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
