"""The benchmark harness runs a short pass of a workload and finds every
answer correct: its checks compare each op with the oracle.  A traced run
also wraps every kernel name the span recorder expects, so a refactor that
drops one fails here."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assert_runs_correct(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


@pytest.mark.parametrize("workload", ["beatty-scans", "approx-certs", "nonarch-model", "cli-batch"])
def test_benchmark_runs_correct(workload):
    _assert_runs_correct(workload, 0)


@pytest.mark.parametrize("workload", ["beatty-scans", "approx-certs", "nonarch-model"])
def test_traced_benchmark_runs_correct(workload):
    _assert_runs_correct(workload, 1)
