"""Self-test of the benchmark's output checks.

    python3 -m pytest perfbench/test_checks.py

A check that passes everything would let a broken program through the
benchmark, so each check is shown to reject a solution.csv whose q* entry
is nudged by 1e-2.
"""
from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sensorsched.cli as cli  # noqa: E402
import workloads  # noqa: E402


def nudge_q(path: Path, delta: float = 1e-2) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[0]["q_star"] = repr(float(rows[0]["q_star"]) + delta)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def pair_out(tmp_path_factory) -> Path:
    """A real pair solve, as the pair-compare workload's first command makes it."""
    work = tmp_path_factory.mktemp("pair")
    config = workloads.pair_scenario(1, work)
    out = work / "out"
    solve = workloads.pair_commands(config, out)[0]
    assert cli.main(solve.argv) == 0
    assert solve.check(out, "") == []
    return out


def test_nudged_pair_solution_fails(pair_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pair_out, out)
    nudge_q(out / "solution.csv")
    fails = workloads.check_pair_solution(out)
    assert any("q_star" in f and "within" in f for f in fails)
    assert any("sums to" in f for f in fails)


def test_nudged_ring_solution_fails(pair_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pair_out, out)
    shutil.copytree(pair_out, out / "ring")
    assert workloads.check_ring_solution(out) == []
    nudge_q(out / "ring" / "solution.csv")
    fails = workloads.check_ring_solution(out)
    assert any("differs from the centralized one" in f for f in fails)
