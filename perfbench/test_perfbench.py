#!/usr/bin/env python3
"""Self-tests of the benchmark's verdict.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (as a benchmark run would) and checks that
a clean run passes, that dropping one notification from each cycle's digest
fails the run, and that a directory without the engine sources yields no
result.
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


def run(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", "snb-churn", "--seed", "3",
           "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cycles(proc):
    # "N cycles (N untraced, 0 traced), ..." in the readable report.
    for line in proc.stdout.splitlines():
        if " cycles (" in line:
            return int(line.split()[0])
    raise AssertionError("no cycle count in report")


class VerdictTest(unittest.TestCase):
    def test_clean_run_passes(self):
        proc = run()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(set(r["metrics"]), {
            "records_per_s", "notify_p50_ms", "notify_p99_ms", "add_query_p50_ms",
            "add_query_p95_ms", "setup_s", "engine_mb"})

    def test_dropped_notification_fails(self):
        proc = run("--inject-drop")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], cycles(proc))
        self.assertIn("notification missing", proc.stdout)

    def test_without_engine_sources_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = run(cwd=tmp, script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
