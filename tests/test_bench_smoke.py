"""The benchmark harness runs a short beatty-scans pass and finds every
answer correct: its checks compare each op with the oracle."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_beatty_scans_benchmark_runs_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "beatty-scans",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
