"""dioapprox benchmark: one workload, a closed loop from one process.

    python3 perfbench/run.py --workload approx-certs --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's deck of ops is made from the seed and run in
whole passes, one op at a time, until about ``--seconds`` have passed.
Outputs are checked after the timed region.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are printed instead.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
from math import ceil
from statistics import median
from time import perf_counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
PROBE_REPEATS = 5
WARMUP_OPS = 10
TAIL_RUNGS = (99.9, 99.5, 99, 95, 90, 75, 50)


# Timings are reported at a fixed machine speed.  On a shared machine the
# speed of plain Python code swings by up to 2x within tens of seconds
# with the load of other tenants.  A short fixed loop, speed_probe, is
# timed about every SPEED_PROBE_EVERY_S seconds; each op's time is
# multiplied by NOMINAL_PROBE_S over the median of the four probes
# nearest to it.  NOMINAL_PROBE_S is the probe's typical time on the machine
# the benchmark was sized on, so there the scaled times read as seconds.
SPEED_PROBE_EVERY_S = 0.5
NOMINAL_PROBE_S = 0.008


class Pass(NamedTuple):
    took: list     # seconds per op, failed ops included
    errors: dict   # op index -> failure
    speed: list    # per op, the median probe time around it (None unprobed)


def speed_probe() -> float:
    """Wall time of a fixed loop of integer arithmetic and dict stores.

    It creates no object the garbage collector tracks, so its time does
    not grow with the program's heap and cannot divide a heap-driven
    slowdown out of the scaled figures."""
    t0 = perf_counter()
    table, s = {}, 0
    for i in range(48_000):
        s += (i * i) % 7
        table[i & 1023] = s
    return perf_counter() - t0


def run_pass(ops, kept=None, rec=None, probe=False) -> Pass:
    """Run every op once, filling `kept` with the outputs if given, and
    timing speed probes between ops when `probe` is set."""
    took = [0.0] * len(ops)
    errors = {}
    probes, probe_at = [], []
    next_probe = 0.0
    for i, op in enumerate(ops):
        if probe and perf_counter() >= next_probe:
            probes.append(speed_probe())
            next_probe = perf_counter() + SPEED_PROBE_EVERY_S
        probe_at.append(len(probes) - 1)
        if rec is not None:
            rec.op_id = i
        s = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is counted, never fatal
            took[i] = perf_counter() - s
            errors[i] = f"{type(exc).__name__}: {exc}"[:160]
            continue
        took[i] = perf_counter() - s
        if kept is not None:
            kept[i] = op.keep(result)
    if not probe:
        return Pass(took, errors, [None] * len(ops))
    probes.append(speed_probe())
    return Pass(took, errors, [median(probes[max(j - 1, 0):j + 3]) for j in probe_at])


def run_checks(ops, kept) -> tuple[dict, dict]:
    """Findings on the kept outputs: wrong answers, and broken interface
    promises (counted as failed ops only)."""
    from workloads import Broken

    cache: dict = {}
    wrong, broken = {}, {}
    for i, result in kept.items():
        try:
            why = ops[i].check(result, cache)
        except Exception as exc:  # a checker that cannot decide is a mismatch
            why = f"check raised {type(exc).__name__}: {exc}"[:160]
        if why:
            (broken if isinstance(why, Broken) else wrong)[i] = f"{ops[i].fn}: {why}"
    return wrong, broken


def wall_of(cmd, env, scaled=False) -> float:
    """Wall time of a command, at the nominal machine speed if `scaled`."""
    scale = NOMINAL_PROBE_S / speed_probe() if scaled else 1.0
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    return (perf_counter() - t0) * scale


def interpreter_s(code: str, env: dict, repeats: int, scaled=False) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    cmd = [sys.executable, "-c", code]
    wall_of(cmd, env)  # bytecode caches and the page cache are warm after this
    return median(wall_of(cmd, env, scaled) for _ in range(repeats))


def nearest_rank(sorted_samples, pct: float) -> float:
    return sorted_samples[max(0, ceil(len(sorted_samples) * pct / 100) - 1)]


def tail_rung(distinct_ok: int) -> float:
    """Highest rung with at least ten of the deck's good ops beyond it.

    The rung depends on the deck, not on how many passes a run made, so
    it stays the same when the program gets faster."""
    return next((p for p in TAIL_RUNGS if distinct_ok * (100 - p) >= 1000), 50)


def failure_summary(ops, errors: dict, broken: dict, wrong: dict) -> dict:
    """Failed ops of one pass, counted by function, input class and cause."""
    causes = [(i, why.split(":", 1)[0]) for i, why in errors.items()]
    causes += [(i, "broken promise") for i in broken] + [(i, "wrong answer") for i in wrong]
    out: dict = {}
    for i, cause in causes:
        key = f"{ops[i].fn} [{ops[i].cls}] {cause}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def context(args, extra: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dioapprox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "seconds": args.seconds, "commit": git_commit(), "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        **extra,
    }


def git_commit():
    """HEAD of the checkout's git repository, when there is one."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a repository; never report an enclosing one
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def timed_run(args, wl, ops, env):
    setup_s = interpreter_s(wl.setup_code, env, SETUP_REPEATS, scaled=True)
    for op in ops[:WARMUP_OPS]:
        try:
            op.call()
        except Exception:  # failures are counted in the timed passes
            pass
    kept: dict = {}
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(ops, kept if not passes else None, probe=True))
        if perf_counter() - start + (perf_counter() - start) / len(passes) / 2 >= args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-batch" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    wrong, broken = run_checks(ops, kept)
    bad = {**broken, **wrong}
    attempted = len(ops) * len(passes)
    failed = sum(len(set(p.errors) | bad.keys()) for p in passes)
    rung = tail_rung(len(ops) - len(set(passes[0].errors) | bad.keys()))
    # each pass runs the same ops; medians over passes shrug off a burst
    # of load that the speed probes missed
    per_pass = []
    for p in passes:
        scaled = [t * NOMINAL_PROBE_S / s for t, s in zip(p.took, p.speed)]
        good = sorted(t for i, t in enumerate(scaled) if i not in p.errors and i not in bad)
        per_pass.append((len(good) / sum(scaled), median(good), nearest_rank(good, rung), len(good)))
    metrics = {
        "ops_per_s": median(p[0] for p in per_pass),
        "latency_p50_ms": median(p[1] for p in per_pass) * 1e3,
        "latency_tail_ms": median(p[2] for p in per_pass) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
    }
    extra = {
        "deck_ops": len(ops), "passes": len(passes),
        "pass_s": [round(sum(p.took), 4) for p in passes],
        "speed_probe_ms": [round(median(p.speed) * 1e3, 3) for p in passes],
        "latency_tail_pct": rung, "latency_samples": sum(p[3] for p in per_pass),
        "latency_pass_samples": per_pass[0][3],
        "latency_beyond_tail": per_pass[0][3] - ceil(per_pass[0][3] * rung / 100),
        "failures": failure_summary(ops, passes[0].errors, broken, wrong),
        "mismatches": sorted(wrong.values()),
    }
    return metrics, attempted, failed, not wrong, extra


def traced_run(args, wl, ops, env):
    import spans
    import workloads

    if wl.name == "cli-batch":
        ops = [workloads.Op(op.fn, op.cls, lambda v=op.argv, e=op.expect: workloads.run_inprocess(v, e),
                            op.check) for op in ops]
    rec = spans.Recorder()
    kept: dict = {}
    kept_traced: dict = {}
    plain, traced, derived = [], [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(ops, kept if not plain else None))
        rec.install()
        try:
            traced.append(run_pass(ops, kept_traced if not traced else None, rec))
        finally:
            rec.uninstall()
        derived.append(rec.derive())
        rec.clear()
        if perf_counter() - start + (perf_counter() - start) / len(plain) / 2 >= args.seconds:
            break

    wrong, broken = run_checks(ops, kept)
    for i in kept:
        if repr(kept[i]) != repr(kept_traced.get(i)):
            wrong[i] = f"{ops[i].fn}: traced output differs from the untraced one"
    bad = {**broken, **wrong}
    runs = plain + traced
    attempted = len(ops) * len(runs)
    failed = sum(len(set(p.errors) | bad.keys()) for p in runs)

    metrics = {}
    repeat = True
    for name in derived[0]:
        values = [d[name] for d in derived]
        if is_count(name):
            metrics[name] = values[0]
            repeat = repeat and len(set(values)) == 1
        else:
            metrics[name] = median(values)
    searches = [i for i, op in enumerate(ops) if op.search and i in kept]
    metrics["beatty.search_hit_frac"] = (
        sum(kept[i] is not None for i in searches) / len(searches) if searches else 0.0)
    interp = interpreter_s("pass", env, PROBE_REPEATS)
    metrics["cli.interp_start_ms"] = interp * 1e3
    metrics["cli.import_ms"] = metrics["cli.build_parser_ms"] = metrics["cli.run_ms"] = 0.0
    if wl.name == "cli-batch":
        from dioapprox import cli
        metrics["cli.import_ms"] = (interpreter_s("import dioapprox.cli", env, PROBE_REPEATS) - interp) * 1e3
        builds = []
        for _ in range(20):
            t0 = perf_counter()
            cli.build_parser()
            builds.append(perf_counter() - t0)
        metrics["cli.build_parser_ms"] = median(builds) * 1e3
        metrics["cli.run_ms"] = median(t for i, t in enumerate(plain[0].took)
                                       if i not in plain[0].errors) * 1e3
    metrics["trace_overhead_frac"] = (
        median(sum(p.took) for p in traced) / median(sum(p.took) for p in plain) - 1)
    extra = {
        "deck_ops": len(ops), "traced_passes": len(traced), "untraced_passes": len(plain),
        "counts_repeat": repeat,
        "failures": failure_summary(ops, plain[0].errors, broken, wrong),
        "mismatches": sorted(wrong.values()),
    }
    return metrics, attempted, failed, not wrong, extra


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".certs")) or "_per_" in name or name.endswith("_frac")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dioapprox", "__init__.py")):
        print(f"error: no dioapprox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dioapprox
    if os.path.dirname(os.path.dirname(os.path.abspath(dioapprox.__file__))) != SRC:
        print(f"error: dioapprox was imported from {dioapprox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = workloads.cli_env(ROOT)
    ops = wl.build(random.Random(f"{args.workload}:{args.seed}"), ROOT)
    run = traced_run if args.trace else timed_run
    metrics, attempted, failed, correct, extra = run(args, wl, ops, env)

    units = spec["per_layer" if args.trace else "end_to_end"]
    print(f"# dioapprox benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in units:
        note = ""
        if m["name"] == "latency_tail_ms":
            note = (f"  (p{extra['latency_tail_pct']:g} of each pass's {extra['latency_pass_samples']} "
                    f"samples, {extra['latency_beyond_tail']} beyond; median of {extra['passes']} passes, "
                    f"{extra['latency_samples']} samples)")
        print(f"{m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}{note}")
    print(json.dumps({"context": context(args, extra)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
