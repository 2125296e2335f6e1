"""Workloads: scenario files made from a seed, the command sequence a user
runs on them, and the checks each command's output must pass.

Every workload is a closed loop of `sensorsched` commands: the next command
starts only after the previous one returned. A check returns a list of
failure messages; an empty list means the command's output is correct.

The checks read the CSV and text artifacts directly instead of calling the
package, so a defect in the package cannot hide itself. The one exception
is `closed_form_delay_chain`, the package's documented exact oracle.
"""
from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The README pair and its published solution.
PAIR_TARGETS = [
    {"label": "noisy", "A": [[0.0, 1.0], [-0.49, 1.4]], "C": [[1.0, 0.0]],
     "Q": [[5.0, 0.0], [0.0, 5.0]], "R": [[0.5]]},
    {"label": "drifty", "A": [[0.0, 1.0], [-0.72, 1.7]], "C": [[1.0, 0.0]],
     "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
]
PAIR_GAMMA = 59.07
PAIR_Q = {"noisy": 0.674, "drifty": 0.326}
PAIR_TOL = 5e-3
CSMA_DURATION = 10_000
# CSMA timers fire at rate q_i, so each target's share of 10 000 periods
# lands within a few periods of q_i * 10 000.
CSMA_TOL = 2e-3
COMPARE_WINDOW = 8

# Delay chains: the test suite's trio plus two unstable ones, so that
# critical_probability has real work to do.
CHAINS = {
    "near": {"a": 1.0, "Q": 1.0, "R": 1.0, "d": 1},
    "mid": {"a": 1.0, "Q": 2.0, "R": 1.0, "d": 2},
    "far": {"a": 1.0, "Q": 5.0, "R": 1.0, "d": 2},
    "unstable": {"a": 1.3, "Q": 1.0, "R": 1.0, "d": 0},
    "unstable_delayed": {"a": 1.1, "Q": 1.0, "R": 1.0, "d": 2},
}
# At the default 1e-5 the critical-probability bisection takes minutes.
CHAIN_INNER_TOL = 2e-3
# Fixed-point iteration stops at step size 1e-9 (1 + ||X||), which leaves
# the iterate up to 1e-9 / (1 - contraction rate) short of the limit.
CHAIN_COST_RTOL = 1e-6

# scale20 draws its 20 targets from one pinned generator seed. Across
# generator seeds the solve does 2x more or less work (interquartile range
# 36% of the median in g_q calls over seeds 1-12), more than any regression
# bound could absorb, so the run seed permutes the targets instead. Seed 2
# is the instance whose ring and centralized q* differ in the last bit.
SCALE20_INSTANCE = 2
SCALE20_N = 20
SCALE20_RUNS = 200
SCALE20_T = 500

# Monte Carlo estimates must land within this many 95% half-widths of the
# bound they estimate.
MC_HALF_WIDTHS = 4.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: metric label, arguments, output check."""

    label: str
    argv: list[str]
    check: Callable[[Path, str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, directory) -> scenario file path; written once per run
    scenario: Callable[[int, Path], Path]
    # (scenario path, session output directory) -> command sequence
    commands: Callable[[Path, Path], list[Command]]


def _write(path: Path, scenario: dict) -> Path:
    path.write_text(json.dumps(scenario, indent=1) + "\n")
    return path


def read_solution(path: Path) -> list[dict]:
    """solution.csv rows with numeric fields parsed."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        for key in ("q_star", "cost", "q_critical", "gamma_star"):
            r[key] = float(r[key])
    return rows


def check_solution(out: Path, stdout: str = "") -> list[str]:
    """Checks every solution must pass: feasible, costs within gamma_star,
    probabilities summing to one."""
    rows = read_solution(out / "solution.csv")
    fails = []
    gamma = rows[0]["gamma_star"]
    if any(r["gamma_star"] != gamma for r in rows):
        fails.append("gamma_star differs between rows")
    if any(r["feasible"] != "true" for r in rows):
        fails.append("solution marked infeasible")
    for r in rows:
        if not r["cost"] <= gamma:
            fails.append(f"{r['label']}: cost {r['cost']!r} exceeds gamma_star {gamma!r}")
    total = sum(r["q_star"] for r in rows)
    if abs(total - 1.0) > 1e-12:
        fails.append(f"q_star sums to {total!r}")
    return fails


# ----------------------------------------------------------------- pair-compare

def pair_scenario(seed: int, directory: Path) -> Path:
    return _write(directory / "pair-compare.json", {
        "targets": PAIR_TARGETS,
        "schedule": {"seed": seed, "duration": CSMA_DURATION},
        "simulate": {"seed": seed, "T": 500, "runs": 1000},
    })


def check_pair_solution(out: Path, stdout: str = "") -> list[str]:
    fails = check_solution(out)
    rows = read_solution(out / "solution.csv")
    gamma = rows[0]["gamma_star"]
    if abs(gamma - PAIR_GAMMA) > PAIR_TOL * PAIR_GAMMA:
        fails.append(f"gamma_star {gamma!r} is not {PAIR_GAMMA} within {PAIR_TOL:.0e}")
    for r in rows:
        if abs(r["q_star"] - PAIR_Q[r["label"]]) > PAIR_TOL:
            fails.append(f"{r['label']}: q_star {r['q_star']!r} is not "
                         f"{PAIR_Q[r['label']]} within {PAIR_TOL:.0e}")
    return fails


def read_sequence_counts(path: Path, n: int) -> np.ndarray:
    lines = path.read_text().split()
    steps = np.array([int(s) for s in lines[3:]])  # after "# L=.. N=.."
    return np.bincount(steps, minlength=n)


def check_pair_schedule(out: Path, stdout: str = "") -> list[str]:
    rows = read_solution(out / "solution.csv")
    counts = read_sequence_counts(out / "schedule_csma.txt", len(rows))
    if counts.sum() != CSMA_DURATION:
        return [f"CSMA schedule has {counts.sum()} periods, expected {CSMA_DURATION}"]
    fails = []
    for r, c in zip(rows, counts):
        share = c / CSMA_DURATION
        if abs(share - r["q_star"]) > CSMA_TOL:
            fails.append(f"{r['label']}: CSMA share {share} is not q_star "
                         f"{r['q_star']:.6f} within {CSMA_TOL}")
    return fails


def check_pair_compare(out: Path, stdout: str = "") -> list[str]:
    gamma = read_solution(out / "solution.csv")[0]["gamma_star"]
    with open(out / "comparison.csv", newline="") as f:
        rows = {r["method"]: r for r in csv.DictReader(f)}
    fails = []
    missing = {"bound", "stochastic", "minconsec", "sliding_window"} - set(rows)
    if missing:
        return [f"comparison.csv lacks {sorted(missing)}"]
    if float(rows["bound"]["max_cost"]) != gamma:
        fails.append("compare bound differs from the solve command's gamma_star")
    mc, hw = float(rows["stochastic"]["max_cost"]), float(rows["stochastic"]["half_width"])
    if not abs(mc - gamma) <= MC_HALF_WIDTHS * hw:
        fails.append(f"stochastic cost {mc!r} is not within {MC_HALF_WIDTHS} "
                     f"half-widths ({hw!r}) of gamma_star {gamma!r}")
    for method in ("minconsec", "sliding_window"):
        if not np.isfinite(float(rows[method]["max_cost"] or "nan")):
            fails.append(f"{method} row has no finite cost: {rows[method]['note']}")
    return fails


def pair_commands(config: Path, out: Path) -> list[Command]:
    common = ["--config", str(config), "--out", str(out)]
    return [
        Command("solve", ["solve", *common], check_pair_solution),
        Command("schedule", ["schedule", "--kind", "csma", *common], check_pair_schedule),
        Command("compare", ["compare", "--window", str(COMPARE_WINDOW), *common],
                check_pair_compare),
    ]


# --------------------------------------------------------------- chain-critical

def chain_scenario(seed: int, directory: Path) -> Path:
    order = np.random.default_rng(seed).permutation(len(CHAINS))
    labels = list(CHAINS)
    return _write(directory / "chain-critical.json", {
        "targets": [{"label": labels[i], "chain": CHAINS[labels[i]]} for i in order],
        "solver": {"inner_tol": CHAIN_INNER_TOL},
    })


def check_chain_solution(out: Path, stdout: str = "") -> list[str]:
    from sensorsched import DelayChainSpec, closed_form_delay_chain

    fails = check_solution(out)
    for r in read_solution(out / "solution.csv"):
        chain = CHAINS[r["label"]]
        X = closed_form_delay_chain(DelayChainSpec(**chain), r["q_star"])
        exact = float(X[-1, -1]) if X is not None else float("inf")
        if not abs(r["cost"] - exact) <= CHAIN_COST_RTOL * exact:
            fails.append(f"{r['label']}: cost {r['cost']!r} differs from the closed "
                         f"form {exact!r} by more than {CHAIN_COST_RTOL:.0e}")
        a = chain["a"]
        lo = max(0.0, 1.0 - 1.0 / a**2)
        hi = lo + CHAIN_INNER_TOL if a > 1 else 0.0
        if not lo <= r["q_critical"] <= hi:
            fails.append(f"{r['label']}: q_critical {r['q_critical']!r} outside "
                         f"[{lo!r}, {hi!r}]")
    return fails


def chain_commands(config: Path, out: Path) -> list[Command]:
    return [Command("solve", ["solve", "--config", str(config), "--out", str(out)],
                    check_chain_solution)]


# ----------------------------------------------------------------- scale20-ring

def scale20_targets(instance: int = SCALE20_INSTANCE, n: int = SCALE20_N) -> list[dict]:
    """n random stable 3x3 targets: A ~ N(0,1) rescaled to a spectral radius
    drawn from U[0.5, 0.95], C ~ N(0,1) 1x3, Q = diag U[0.5, 5], R ~ U[0.5, 2]."""
    rng = np.random.default_rng(instance)
    targets = []
    for i in range(n):
        A = rng.normal(size=(3, 3))
        A *= rng.uniform(0.5, 0.95) / np.max(np.abs(np.linalg.eigvals(A)))
        C = rng.normal(size=(1, 3))
        Q = np.diag(rng.uniform(0.5, 5.0, size=3))
        R = [[rng.uniform(0.5, 2.0)]]
        targets.append({"label": f"t{i:02d}", "A": A.tolist(), "C": C.tolist(),
                        "Q": Q.tolist(), "R": R})
    return targets


def scale20_scenario(seed: int, directory: Path) -> Path:
    targets = scale20_targets()
    order = np.random.default_rng(seed).permutation(len(targets))
    scenario = {
        "targets": [targets[i] for i in order],
        "simulate": {"seed": seed, "T": SCALE20_T, "runs": SCALE20_RUNS},
    }
    _write(directory / "scale20-ring-topology.json", {**scenario, "topology": "ring"})
    return _write(directory / "scale20-ring.json", scenario)


def check_ring_solution(out: Path, stdout: str = "") -> list[str]:
    fails = check_solution(out / "ring")
    central = read_solution(out / "solution.csv")
    ring = read_solution(out / "ring" / "solution.csv")
    if ring[0]["gamma_star"] != central[0]["gamma_star"]:
        fails.append(f"ring gamma_star {ring[0]['gamma_star']!r} differs from the "
                     f"centralized {central[0]['gamma_star']!r}")
    # consensus_tol keeps its documented default of 1e-12.
    gap = max(abs(r["q_star"] - c["q_star"]) for r, c in zip(ring, central))
    if gap > 1e-12:
        fails.append(f"ring q_star differs from the centralized one by {gap:.3g}")
    return fails


_EXPECTED = re.compile(r"^\s+(\S+): expected trace (\S+) ± (\S+)$", re.M)


def check_scale20_simulate(out: Path, stdout: str) -> list[str]:
    gamma = read_solution(out / "solution.csv")[0]["gamma_star"]
    est = [(float(m), float(hw)) for _, m, hw in _EXPECTED.findall(stdout)]
    if len(est) != SCALE20_N:
        return [f"simulate printed {len(est)} target estimates, expected {SCALE20_N}"]
    mc, hw = max(est)
    if not abs(mc - gamma) <= MC_HALF_WIDTHS * hw:
        return [f"Monte Carlo maximum {mc} is not within {MC_HALF_WIDTHS} half-widths "
                f"({hw}) of gamma_star {gamma!r}"]
    return []


def scale20_commands(config: Path, out: Path) -> list[Command]:
    ring_config = config.with_name(config.stem + "-topology.json")
    common = ["--config", str(config), "--out", str(out)]
    return [
        Command("solve", ["solve", *common], check_solution),
        Command("distributed_solve",
                ["solve", "--config", str(ring_config), "--out", str(out / "ring")],
                check_ring_solution),
        Command("simulate", ["simulate", "--kind", "random", *common],
                check_scale20_simulate),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pair-compare", pair_scenario, pair_commands),
        Workload("chain-critical", chain_scenario, chain_commands),
        Workload("scale20-ring", scale20_scenario, scale20_commands),
    )
}
