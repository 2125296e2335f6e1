#!/usr/bin/env python3
"""Benchmark of the `sensorsched` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's scenario is made
from the seed, then its command sequence runs as a closed loop, one command
at a time, through `sensorsched.cli.main` in this process, repeated until S
seconds have passed. Every command's output is checked.

--trace 0 prints the end-to-end metrics: set-up time, the solve command,
the whole command sequence and peak memory. --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give each
command's timing distribution, raw and normalized.

End-to-end times are normalized to a fixed reference speed: each command's
wall time is scaled by REF_SECONDS over the time of a reference kernel run
just before and just after it. On a shared host the machine's speed drifts
by up to 2x over tens of seconds, and the kernel slows down with it.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The matrices are at most 3x3, so BLAS threads only add scheduling noise.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The reference kernel's nominal time: a normalized time is the wall time
# on a machine where reference_time() returns this.
REF_SECONDS = 0.04
SETUP_REPEATS = 7
# Time from before `import sensorsched` to a loaded scenario, in a fresh
# interpreter, as a command-line user pays it on every invocation, followed
# by the reference kernel (its first call warms numpy up).
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sensorsched.cli import load_scenario
load_scenario(sys.argv[2])
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from run import reference_time
reference_time()
print(repr(setup), repr(reference_time()))
"""
LAYER_UNITS = {
    "model.load_scenario_s": "s",
    "mare.critical_calls": "count",
    "mare.critical_s": "s",
    "mare.max_iter_solves": "count",
    "mare.g_q_calls": "count",
    "mare.g_q_us": "us",
    "mare.solve_calls": "count",
    "mare.iterations": "count",
    "mare.diverged_solves": "count",
    "mare.converged_ratio": "ratio",
    "mare.solve_self_s": "s",
    "optimizer.outer_iterations": "count",
    "optimizer.inner_iterations": "count",
    "optimizer.solves_per_inner_step": "ratio",
    "optimizer.self_s": "s",
    "distributed.total_rounds": "count",
    "distributed.consensus_rounds_max": "count",
    "distributed.self_s": "s",
    "distributed.q_bitwise_equal": "count",
    "simulate.mc_s": "s",
    "simulate.mc_updates_per_s": "1/s",
    "simulate.sliding_window_s": "s",
    "simulate.sliding_window_leaves": "count",
    "simulate.evaluate_s": "s",
    "schedule.csma_s": "s",
    "schedule.minconsec_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.solve_overhead_s": "s",
}
# Counts that depend only on the inputs; they must repeat exactly.
DETERMINISTIC = ("mare.g_q_calls", "mare.iterations", "mare.solve_calls",
                 "mare.critical_calls", "optimizer.outer_iterations",
                 "optimizer.inner_iterations", "distributed.total_rounds")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_time() -> float:
    """Seconds taken by a fixed Riccati iteration on a 2x2 target.

    It does what the package spends most of its time on (small matrix
    products and solves called from a Python loop) but lives here, so no
    change to the package can change it. Over 35-second windows of the
    pair workload, dividing by it cut the interquartile range of the
    median solve time from 27% to 4% of the median.
    """
    import numpy as np

    A = np.array([[0.0, 1.0], [-0.49, 1.4]])
    C = np.array([[1.0, 0.0]])
    Q = np.eye(2)
    R = np.array([[1.0]])
    X = Q
    start = time.perf_counter()
    for _ in range(1500):
        M = A @ X @ C.T
        X = A @ X @ A.T + Q - 0.5 * (M @ np.linalg.solve(C @ X @ C.T + R, M.T))
        X = (X + X.T) / 2
    return time.perf_counter() - start


def measure_setup(scenario: Path) -> tuple[list[float], list[float]]:
    """Raw and normalized set-up seconds, one per fresh interpreter."""
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup, ref = map(float, done.stdout.split()[-2:])
        raw.append(setup)
        norm.append(setup * REF_SECONDS / ref)
    return raw, norm


def tail_percentile(samples: list[float]):
    """(p, value) for the highest whole percentile with at least ten samples
    above it (nearest rank), or None when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p n / 100), 1-based
        if n - rank >= 10:
            return p, s[rank - 1]
    return None


def describe(name: str, samples: list[float], unit: str = "s") -> str:
    line = f"{name:<34} median {statistics.median(samples):.4f} {unit}"
    tail = tail_percentile(samples)
    if tail:
        line += f", p{tail[0]} {tail[1]:.4f} {unit}"
    else:
        line += f", max {max(samples):.4f} {unit} (too few for a tail percentile)"
    return line + f", n={len(samples)}"


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def last_error() -> str:
    """The exception being handled and the line that raised it, on one line."""
    return traceback.format_exc(limit=-1).strip().replace("\n", " | ")


def run_session(cli, workload, scenario: Path, out: Path):
    """One pass of the command sequence: raw and normalized seconds per
    command, artifact bytes, and (command, failure) pairs."""
    out.mkdir(parents=True)
    times: dict[str, float] = {}
    norm: dict[str, float] = {}
    failures: list[tuple[str, str]] = []
    ref = reference_time()
    for cmd in workload.commands(scenario, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        # A command or check that raises is one failed operation; the run
        # goes on so that failures are counted against attempts.
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(cmd.argv)
        except Exception:
            code = None
            failures.append((cmd.label, "raised " + last_error()))
        times[cmd.label] = time.perf_counter() - start
        ref, before = reference_time(), ref
        norm[cmd.label] = times[cmd.label] * REF_SECONDS / ((before + ref) / 2)
        if code:
            failures.append((cmd.label, f"exit code {code}: {stderr.getvalue().strip()}"))
        if code != 0:
            continue
        try:
            failures.extend((cmd.label, f) for f in cmd.check(out, stdout.getvalue()))
        except Exception:
            failures.append((cmd.label, "output unreadable: " + last_error()))
    times["session"] = sum(times.values())
    norm["session"] = sum(norm.values())
    size = dir_bytes(out)
    shutil.rmtree(out)
    return times, norm, size, failures


def layer_metrics(tracer, artifact_bytes: int) -> dict[str, float]:
    import numpy as np

    t, calls = tracer.total_s, tracer.calls
    solves = [r for _, r in tracer.arguments("mare.solve_mare")]
    central = [r for _, r in tracer.arguments("optimizer.solve_distribution")]
    ring = [r for _, r in tracer.arguments("distributed.solve_distributed")]
    mc = [r for _, r in tracer.arguments("simulate.monte_carlo")]
    windows = tracer.arguments("simulate.sliding_window")
    inner = sum(r.inner_iterations for r in central)
    mc_updates = sum(r.runs * r.T * r.expected.per_target_avg_trace.size for r in mc)
    return {
        "model.load_scenario_s": t["model.load_scenario"],
        "mare.critical_calls": calls["mare.critical_probability"],
        "mare.critical_s": t["mare.critical_probability"],
        "mare.max_iter_solves": sum(r.status.name == "MAX_ITERATIONS" for r in solves),
        "mare.g_q_calls": calls["mare.g_q"],
        "mare.g_q_us": 1e6 * t["mare.g_q"] / calls["mare.g_q"] if calls["mare.g_q"] else 0.0,
        "mare.solve_calls": calls["mare.solve_mare"],
        "mare.iterations": sum(r.iterations for r in solves),
        "mare.diverged_solves": sum(r.status.name == "DIVERGED" for r in solves),
        "mare.converged_ratio": (sum(r.converged for r in solves) / len(solves)
                                 if solves else 0.0),
        "mare.solve_self_s": tracer.self_s["mare.solve_mare"],
        "optimizer.outer_iterations": sum(r.outer_iterations for r in central),
        "optimizer.inner_iterations": inner,
        "optimizer.solves_per_inner_step": (
            tracer.within["optimizer.solve_distribution", "mare.solve_mare"] / inner
            if inner else 0.0),
        "optimizer.self_s": tracer.self_s["optimizer.solve_distribution"],
        "distributed.total_rounds": sum(r.total_rounds for r in ring),
        "distributed.consensus_rounds_max": max(
            (max(r.consensus_rounds, default=0) for r in ring), default=0),
        "distributed.self_s": tracer.self_s["distributed.solve_distributed"],
        # Each ring solve follows the centralized solve of the same targets.
        "distributed.q_bitwise_equal": sum(
            np.array_equal(d.solution.q_star.q, c.q_star.q) for d, c in zip(ring, central)),
        "simulate.mc_s": t["simulate.monte_carlo"],
        "simulate.mc_updates_per_s": (mc_updates / t["simulate.monte_carlo"]
                                      if mc_updates else 0.0),
        "simulate.sliding_window_s": t["simulate.sliding_window"],
        "simulate.sliding_window_leaves": sum(
            a["T"] * len(a["targets"]) ** a["window"] for a, _ in windows),
        "simulate.evaluate_s": t["simulate.evaluate_schedule"],
        "schedule.csma_s": t["schedule.csma"],
        "schedule.minconsec_s": t["schedule.minconsec"],
        "cli.self_s": tracer.self_s["cli.main"],
        "cli.artifact_bytes": artifact_bytes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sensorsched" / "cli.py").is_file():
        print(f"perfbench: no sensorsched sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import sensorsched.cli as cli
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, cli, workload, base, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, workload, base: Path, work: Path) -> int:
    print(f"workload {workload.name}, seed {args.seed}")
    print(f"closed loop, one command at a time in one process; "
          f"{', '.join(BLAS_VARIABLES)}={BLAS_THREADS}")
    scenario = workload.scenario(args.seed, work)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # samples[kind][traced][command label]: seconds per session
    samples = {kind: {False: {}, True: {}} for kind in ("raw", "normalized")}
    layer_runs: list[dict[str, float]] = []
    failures: list[tuple[str, str]] = []
    attempted = failed = 0
    setup = ([], []) if args.trace else measure_setup(scenario)
    reference_time()  # warm up before the first timed command
    deadline = time.perf_counter() + args.seconds
    sessions: list[float] = []
    k = 0
    # Start another session while it would end nearer the deadline than not,
    # so a run lasts about --seconds whatever the session length.
    while k < 1 + bool(tracer) or (
            time.perf_counter() + statistics.median(sessions) / 2 < deadline):
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.reset()
            tracer.enabled = True
        start = time.perf_counter()
        raw, norm, size, fails = run_session(cli, workload, scenario, work / f"session-{k}")
        sessions.append(time.perf_counter() - start)
        if tracer:
            tracer.enabled = False
        if traced:
            layer_runs.append(layer_metrics(tracer, size))
        for kind, times in (("raw", raw), ("normalized", norm)):
            for label, dt in times.items():
                samples[kind][traced].setdefault(label, []).append(dt)
        attempted += len(raw) - 1
        failed += len({label for label, _ in fails})
        failures.extend(fails)
        k += 1

    for label, f in failures:
        print(f"FAILED {label}: {f}")
    correct = not failures
    for traced in (False, True) if tracer else (False,):
        for kind in ("raw", "normalized"):
            mode = ("traced " if traced else "untraced ") if tracer else ""
            for label, values in samples[kind][traced].items():
                print(describe(f"{mode}{label}_s {kind}", values))
    if not tracer:
        for kind, values in zip(("raw", "normalized"), setup):
            print(describe(f"setup_s {kind}", values))
        norm = samples["normalized"][False]
        metrics = {
            "setup_s": (statistics.median(setup[1]), "s"),
            "solve_s": (statistics.median(norm["solve"]), "s"),
            "session_s": (statistics.median(norm["session"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        norm = samples["normalized"]
        overhead = {label: statistics.median(norm[True][label])
                    - statistics.median(norm[False][label]) for label in norm[True]}
        for label, dt in overhead.items():
            print(f"tracing overhead {label:<18} {dt:+.4f} s normalized")
        for name in DETERMINISTIC:
            if len({run[name] for run in layer_runs}) > 1:
                print(f"FAILED trace: {name} differs between traced repetitions")
                correct = False
        for span in tracer.absent:
            print(f"absent: {span} no longer exists; its metrics read 0")
        # median_low keeps counts whole numbers
        merged = {name: statistics.median_low(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        merged["trace.overhead_s"] = overhead["session"]
        merged["trace.solve_overhead_s"] = overhead["solve"]
        metrics = {name: (merged[name], unit) for name, unit in LAYER_UNITS.items()}
        tracer.write(base / f"trace-{workload.name}-seed{args.seed}.json")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
