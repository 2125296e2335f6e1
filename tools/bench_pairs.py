#!/usr/bin/env python3
"""Record the benchmark of a parent ref against the working tree.

    python3 tools/bench_pairs.py --parent REF --out RECORD.json [--first-seed 101]

This is how the BENCH_*.json records at the root of the repository are
made. The parent ref is extracted with `git archive` into a temporary
directory, and the working tree's files (those `git add -A` would
record) are copied next to it when the record starts, so an edit made
while it runs is not measured. Both copies are removed afterwards (on
SIGTERM too), so a record leaves the repository's git state alone. Both
sides are byte-compiled before the runs, so that no run pays for writing
bytecode the other side already has. For every workload of
BENCHMARK.json, pair i of 10 runs `python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0`, with N the benchmark's `run_seconds`,
once in the parent checkout and once in the working tree's copy, with
the parent first in odd pairs and second in even ones, so that a drift
in the host's speed falls on both sides alike. Workload j (from 0) uses
the seeds first_seed + 100 j, first_seed + 100 j + 1, ...; pick seeds
that were not used while writing the change. After the pairs, one `--trace 1` run at seed 1 per side
records the per-layer counters.

The record keeps every result line (the last line of each run's
output), and summarizes each end-to-end metric per workload: median and
quartiles per side, and in how many pairs the change was lower. It also
sums `failed` and ands `correct` per side.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    p.add_argument("--first-seed", type=int, default=101)
    return p.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(ref: str, into: Path) -> None:
    """The files of `ref`, as `git archive` exports them, under `into`."""
    archive = into.with_suffix(".tar")
    git("archive", "--format=tar", f"--output={archive}", ref)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def snapshot(into: Path) -> None:
    """The working tree's tracked and unignored files, as they are now, under `into`."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted from the tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, into / name)


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in the given checkout."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} gave no result line "
                           f"(exit {done.returncode}): {done.stderr.strip()}") from None


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def summarize(pairs: list[dict], metrics: list[str]) -> dict:
    def values(side, name):
        return [p[side]["metrics"][name]["value"] for p in pairs]

    out = {}
    for name in metrics:
        parent, change = values("parent", name), values("change", name)
        entry = {}
        for side, v in (("parent", parent), ("change", change)):
            q1, median, q3 = statistics.quantiles(v, n=4, method="inclusive")
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        entry["pairs_change_lower"] = sum(c < p for p, c in zip(parent, change))
        entry["pairs"] = len(pairs)
        out[name] = entry
    out["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}
    out["correct"] = {s: all(p[s]["correct"] for p in pairs) for s in ("parent", "change")}
    return out


def host() -> str:
    import numpy

    return (f"{platform.processor() or platform.machine()}, {os.cpu_count()} cores, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    sha = git("rev-parse", "--short", args.parent)
    record = {
        "what": (f"perfbench/run.py result lines, parent {sha} (a `git archive` extract) "
                 "against a copy of the working tree taken at the start, both byte-compiled "
                 "before the runs; "
                 f"{PAIRS} alternating untraced pairs per workload "
                 f"({seconds:g} s runs, odd pairs run the parent first), "
                 "plus the traced seed-1 counters of both sides"),
        "host": host(),
        "pairs": {},
        "summary": {},
        "traced_seed_1": {},
    }
    # SIGTERM unwinds like Ctrl-C, so the temporary directory holding the
    # parent's extract and the working tree's copy is removed
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            parent = Path(tmp) / "parent"
            extract(args.parent, parent)
            change = Path(tmp) / "change"
            snapshot(change)
            sides = {"parent": parent, "change": change}
            for checkout in sides.values():
                for package in ("src", "perfbench"):
                    compileall.compile_dir(checkout / package, quiet=1)
            for j, workload in enumerate(workloads):
                pairs = []
                for i in range(PAIRS):
                    seed = args.first_seed + 100 * j + i
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        pair[side] = bench(sides[side], workload, seed, seconds, 0)
                    pairs.append(pair)
                    print(f"{workload} seed {seed}: session_s "
                          f"{pair['parent']['metrics']['session_s']['value']:.4f} -> "
                          f"{pair['change']['metrics']['session_s']['value']:.4f}",
                          file=sys.stderr)
                record["pairs"][workload] = pairs
                record["summary"][workload] = summarize(pairs, metrics)
                record["traced_seed_1"][workload] = {
                    side: bench(sides[side], workload, 1, seconds, 1)
                    for side in ("parent", "change")
                }
    finally:
        signal.signal(signal.SIGTERM, previous)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
