"""Check that two traced runs with the same seed give identical counts.

    python3 perfbench/determinism_check.py

Runs ``run.py --trace 1 --seed 1`` twice per workload and compares every
count metric: ``*.calls``, ``*.certs``, ``*_per_*`` and ``*_frac`` other
than the timed ``trace_overhead_frac``.  Exits 1 and names each metric
that differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import SRC, is_count  # noqa: E402

sys.path.insert(0, SRC)
from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True, timeout=600)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if is_count(k) and k != "trace_overhead_frac"}


def main() -> int:
    status = 0
    for w in WORKLOADS:
        first, second = traced_counts(w), traced_counts(w)
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{w}: {len(first)} counts, {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
