"""Filtering under a schedule, cost evaluation, and baselines.

The error covariance recursion never looks at measured values, only at
whether a measurement happened, so the estimation cost of any concrete
schedule is deterministic: propagate each target's prediction covariance
from its Q, apply the update exactly at its observation slots, and
time-average its cost (`LtiTarget.cost_of`, the trace unless the target
selects cost weights), the quantity the optimizer bounds. Monte Carlo over
sampled schedules estimates the expected cost of stochastic scheduling; it
advances one covariance per distinct observation history rather than one
per run. A receding-horizon tree search, whose lookahead tree is carried
from step to step, is the deterministic planning baseline.

Time averages drop a short burn-in prefix (min(T // 5, 200) steps) so the
initial covariance does not bias finite-horizon readings of an asymptotic
quantity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mare import _riccati_step
from .model import LtiTarget, ScheduleDistribution
from .schedule import ScheduleSequence

__all__ = [
    "CostReport",
    "MonteCarloReport",
    "covariance_step",
    "evaluate_schedule",
    "monte_carlo_expected_cost",
    "sliding_window_schedule",
    "default_burn_in",
]


def default_burn_in(T: int) -> int:
    return min(T // 5, 200)


@dataclass(frozen=True, eq=False)
class CostReport:
    """Time-averaged estimation cost of a schedule.

    per_target_avg_trace holds each target's average prediction-covariance
    cost (`cost_of`: the trace unless the target selects cost weights)
    after burn-in; max_over_targets is their maximum (the min-max
    objective this toolkit optimizes). half_width carries 95% confidence
    half-widths when the numbers are Monte Carlo estimates. trace_series
    is the full per-step cost matrix, one column per target, of a
    deterministic evaluation.
    """

    per_target_avg_trace: np.ndarray
    max_over_targets: float
    half_width: np.ndarray | None = None
    trace_series: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Monte Carlo cost of stochastic scheduling.

    expected: terminal-window estimator (mean cost over the final 20% of
    steps, averaged over runs), the steady-state "empirical cost"
    reading. time_averaged: the same machinery applied to the whole
    post-burn-in horizon, which is the quantity the fixed-point bound
    speaks about. mean_trace_series averages the per-step costs across
    runs (one column per target).
    """

    expected: CostReport
    time_averaged: CostReport
    runs: int
    T: int
    mean_trace_series: np.ndarray


def covariance_step(target: LtiTarget, P: np.ndarray, observed: bool) -> np.ndarray:
    """One prediction-covariance update: correction applied only if observed."""
    return _riccati_step(target, np.asarray(P, dtype=float), 1.0 if observed else 0.0)


def evaluate_schedule(targets: list[LtiTarget], seq: ScheduleSequence) -> CostReport:
    """Deterministic cost of a concrete schedule.

    Propagates every target's prediction covariance from Q across the
    sequence (observed exactly at its slots) and averages its cost after
    burn-in. The sequence is used as given; tile it beforehand to
    approximate long-run behavior of a periodic schedule.
    """
    if seq.n_targets != len(targets):
        raise ValueError(f"sequence is over {seq.n_targets} targets, got {len(targets)}")
    T = len(seq)
    costs = np.empty((T, len(targets)))
    for i, target in enumerate(targets):
        P = target.Q
        observed = np.equal(seq.steps, i)
        for k in range(T):
            costs[k, i] = target.cost_of(P)
            P = covariance_step(target, P, bool(observed[k]))
    avg = costs[default_burn_in(T):].mean(axis=0)
    return CostReport(
        per_target_avg_trace=avg,
        max_over_targets=float(avg.max()),
        trace_series=costs,
    )


def monte_carlo_expected_cost(
    targets: list[LtiTarget],
    q: ScheduleDistribution,
    T: int,
    runs: int,
    seed: int,
) -> MonteCarloReport:
    """Expected scheduling cost under i.i.d. random target selection.

    Each run draws its own schedule from a child of the master seed, so
    results are reproducible and independent of batching. A target's
    covariance depends only on that target's own observation history, so
    the runs that share a history share one covariance: each step makes
    one stacked kernel call with one row per distinct history, and a
    group of runs splits in two only at a step where its runs disagree.
    Each run's costs are gathered from its group's row. A slice of a
    stacked call has the bits of the call on that slice alone (and a
    scalar q = 0 or 1 the bits of the mask), so every run reads exactly
    the covariances it would on its own, at a fraction of the work when
    one target is observed almost always or almost never.
    """
    if len(q) != len(targets):
        raise ValueError(f"distribution is over {len(q)} targets, got {len(targets)}")
    if T < 1 or runs < 1:
        raise ValueError("T and runs must be at least 1")
    tail = max(1, T // 5)

    children = np.random.SeedSequence(seed).spawn(runs)
    schedules = np.empty((runs, T), dtype=np.int64)
    n = len(targets)
    for r in range(runs):
        rng = np.random.default_rng(children[r])
        schedules[r] = rng.choice(n, size=T, p=q.q)

    emp = np.empty((runs, n))
    tavg = np.empty((runs, n))
    mean_series = np.empty((T, n))
    for i, target in enumerate(targets):
        # runs that share target i's observation history share one
        # covariance: group[r] is run r's row of P, first[g] a run of group g
        P = target.Q[None]
        group = np.zeros(runs, dtype=np.intp)
        first = np.zeros(1, dtype=np.intp)
        costs = np.empty((runs, T))
        observed = np.equal(schedules.T, i, order="C")  # one row per step
        for k in range(T):
            costs[:, k] = target.cost_of(P)[group]
            obs = observed[k]
            seen = obs[first]
            # once every run has a group of its own, no group can split
            moved = np.flatnonzero(obs != seen[group]) if len(P) < runs else ()
            if len(moved):
                # the runs that disagree with their group's first run leave
                # it together, for a new group that starts as a copy of it
                old, at, new = np.unique(
                    group[moved], return_index=True, return_inverse=True
                )
                group[moved] = len(first) + new
                first = np.concatenate((first, moved[at]))
                P = np.concatenate((P, P[old]))
                if len(P) == runs:
                    # rows in run order make both gathers views, so a fully
                    # split Monte Carlo costs what a plain stack of runs does
                    P, group, first = P[group], slice(None), slice(None)
                seen = obs[first]
            # a scalar q when all groups agree: q = 0 skips the gain
            n_seen = np.count_nonzero(seen)
            q_k = seen[:, None, None] if 0 < n_seen < len(seen) else float(n_seen > 0)
            P = _riccati_step(target, P, q_k)
        emp[:, i] = costs[:, T - tail:].mean(axis=1)
        tavg[:, i] = costs[:, default_burn_in(T):].mean(axis=1)
        mean_series[:, i] = costs.mean(axis=0)

    def report(stat: np.ndarray) -> CostReport:
        mean = stat.mean(axis=0)
        if runs > 1:
            hw = 1.96 * stat.std(axis=0, ddof=1) / np.sqrt(runs)
        else:
            hw = np.zeros(n)
        return CostReport(
            per_target_avg_trace=mean,
            max_over_targets=float(mean.max()),
            half_width=hw,
        )

    return MonteCarloReport(
        expected=report(emp),
        time_averaged=report(tavg),
        runs=runs,
        T=T,
        mean_trace_series=mean_series,
    )


def sliding_window_schedule(
    targets: list[LtiTarget],
    window: int,
    T: int,
) -> tuple[ScheduleSequence, CostReport]:
    """Receding-horizon tree search baseline.

    At each step, score every observation sequence over the lookahead
    window by its end-of-window worst-case cost, commit only the first
    element of the best, and slide forward one step; the committed move's
    subtree is kept, so each step grows just one new tree level. Ties break
    toward the lexicographically smallest window. The scoring choice makes
    this a self-contained baseline definition: it optimizes where the
    window ends up, not the running average inside it, and can therefore
    defer observations a running-cost criterion would take.
    """
    n = len(targets)
    if window < 1:
        raise ValueError("window must be at least 1")
    if n ** window > 1_000_000:
        raise ValueError(
            f"{n}^{window} window sequences is beyond the enumeration guard "
            "(1e6); use a smaller window"
        )
    stacks = [t.Q[None] for t in targets]
    committed = np.empty(T, dtype=np.int64)
    subtree = n ** (window - 1)
    for k in range(1 - window, T):
        # leaf b branches into leaves b * n + c, c the target observed next;
        # target i is open loop on every branch but c = i
        for i, t in enumerate(targets):
            seen, unseen = (_riccati_step(t, stacks[i], q) for q in (1.0, 0.0))
            stacks[i] = np.stack(
                [seen if c == i else unseen for c in range(n)], axis=1
            ).reshape(-1, t.n, t.n)
        if k < 0:
            continue  # still building the first tree
        scores = np.max([t.cost_of(s) for t, s in zip(targets, stacks)], axis=0)
        move = int(np.argmin(scores)) // subtree
        committed[k] = move
        stacks = [s[move * subtree:(move + 1) * subtree] for s in stacks]
    seq = ScheduleSequence(steps=committed, n_targets=n)
    return seq, evaluate_schedule(targets, seq)
