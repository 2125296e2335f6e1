"""Filtering under a schedule, cost evaluation, and baselines.

The error covariance recursion never looks at measured values, only at
whether a measurement happened, so the estimation cost of any concrete
schedule is deterministic: propagate each target's prediction covariance
from its Q, apply the update exactly at its observation slots, and
time-average its cost (`LtiTarget.cost_of`, the trace unless the target
selects cost weights), the quantity the optimizer bounds. One engine
advances the covariances along given schedules: one covariance per
distinct observation history rather than one per run, and the targets
that share a dimension in one kernel call per step. Monte Carlo over
sampled schedules runs it on many schedules to estimate the expected cost
of stochastic scheduling, `evaluate_schedule` on one. A receding-horizon
tree search, whose lookahead tree is carried from step to step, is the
deterministic planning baseline.

Every stack of covariances is held as planes [n, n, rows], rows innermost,
so the kernel's elementwise steps run on long vectors (see
`mare._riccati_step`), and `cost_of` scores all its planes at once.

Time averages drop a short burn-in prefix (min(T // 5, 200) steps) so the
initial covariance does not bias finite-horizon readings of an asymptotic
quantity.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .mare import _riccati_step, _system_rows
from .model import LtiTarget, ScheduleDistribution, _weighted_trace
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


def _cost_paths(targets: list[LtiTarget], steps: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Every target's costs along given schedules, one target at a time.

    steps[k, run] is the target that run observes at step k. Yields
    (i, costs) for each target i, class by class: costs[run, k] is the
    cost (`cost_of`) of i's prediction covariance at step k, before its
    update.

    The runs that share a target's observation history share one row, and
    the rows of every target of a dimension class (n, p) one stack and one
    kernel call per step: group[j, run] is the row of that run of target
    pos[j], owner[r] the class position of row r's target. Where a row's
    runs disagree, each new row is keyed by its parent row and observation
    bit, 2 * row + bit; the sorted distinct keys number the new rows. A
    target whose runs all have rows of their own cannot split again: it
    leaves the stack with its rows in run order and finishes alone, one
    call per step. One run never splits, so a single schedule stays in
    the stack throughout.

    Every run reads exactly the bits it would on its own: each call takes
    the rows' observation bits as its mask, a slice of a stacked call has
    the bits of the call on that slice alone, and `cost_of` sums each plane
    on its own. The stack keeps one cost per row and step and one copy of the
    grouping per stretch of steps without a split, at most `runs` rows per
    target. A target that leaves takes its planes [n, n, runs] by a column
    gather of the stack.
    """
    T, runs = steps.shape
    dims = [(t.n, t.p) for t in targets]
    for dim in dict.fromkeys(dims):  # the classes in order of first appearance
        members = np.flatnonzero([d == dim for d in dims])
        ts = [targets[i] for i in members]
        Bt, Qs, Rs = _system_rows(ts)
        weights = np.stack([np.ones(t.n) if t.cost_weights is None else t.cost_weights
                            for t in ts], axis=-1)
        pos = owner = np.arange(len(members))
        group = np.repeat(pos[:, None], runs, axis=1)
        P = Qs  # every row starts at its target's Q
        stretches, left = [], {}
        for k in range(T):
            obs = np.equal(steps[k], members[pos, None])  # obs[j, run]: pos[j] is observed
            seen = np.zeros(P.shape[-1], dtype=bool)  # seen[r]: a run of row r is observed
            seen[group[obs]] = True
            disagree = seen[group] != obs
            split = disagree.any()
            if split:
                # a row whose runs disagree splits in two, so a target
                # leaves once that gives every run a row of its own
                mixed = np.bincount(group[disagree], minlength=P.shape[-1]) > 0
                out = np.bincount(owner, 1 + mixed, len(members))[pos] == runs
                left.update((pos[j], (k, P[..., group[j]])) for j in np.flatnonzero(out))
                group, obs, pos = group[~out], obs[~out], pos[~out]
                if not len(pos):
                    break
                keys, group = np.unique(2 * group + obs, return_inverse=True)
                group = group.reshape(obs.shape)
                P, owner, seen = P[..., keys // 2], owner[keys // 2], keys % 2 == 1
            if k == 0 or split:
                rows = group.astype(np.min_scalar_type(P.shape[-1] - 1))
                stretches.append((k, dict(zip(pos.tolist(), rows)), []))
                row_system = Bt[owner], Qs[..., owner], Rs[..., owner]
                row_weights = weights[:, owner]
            stretches[-1][2].append(_weighted_trace(P, row_weights))
            P = _riccati_step(row_system, P, seen)
        stretches = [(k, rows, np.array(c)) for k, rows, c in stretches]
        for j, (i, t) in enumerate(zip(members, ts)):
            costs = np.empty((runs, T))
            for start, rows, block in stretches:
                if j not in rows:
                    break  # i has left the stack
                costs[:, start:start + len(block)] = block[:, rows[j]].T
            if j in left:
                start, P = left.pop(j)
                for k in range(start, T):
                    costs[:, k] = t.cost_of(P)
                    P = _riccati_step(t, P, steps[k] == i)
            yield i, costs


def evaluate_schedule(targets: list[LtiTarget], seq: ScheduleSequence) -> CostReport:
    """Deterministic cost of a concrete schedule.

    Propagates every target's prediction covariance from Q across the
    sequence (observed exactly at its slots) and averages its cost after
    burn-in: the one-run case of the Monte Carlo's propagation, so the
    targets that share a dimension (n, p) advance together in one kernel
    call per step. The sequence is used as given; tile it beforehand to
    approximate long-run behavior of a periodic schedule.
    """
    if seq.n_targets != len(targets):
        raise ValueError(f"sequence is over {seq.n_targets} targets, got {len(targets)}")
    T = len(seq)
    costs = np.empty((T, len(targets)))
    for i, path in _cost_paths(targets, seq.steps[:, None]):
        costs[:, i] = path[0]
    avg = costs[default_burn_in(T):].mean(axis=0)
    return CostReport(
        per_target_avg_trace=avg,
        max_over_targets=float(avg.max()),
        trace_series=costs,
    )


def _draw_schedules(q: ScheduleDistribution, T: int, runs: int, seed: int) -> np.ndarray:
    """steps[k, r], the target run r observes at step k.

    Run r's T uniforms come from its own child of the master seed and are
    mapped to targets by `searchsorted` on the normalized cumulative q:
    the draws of `Generator.choice(len(q), T, p=q)`, bit for bit, without
    its per-call checks of p. One run at a time keeps the buffers small.
    """
    cdf = np.cumsum(q.q)
    cdf /= cdf[-1]
    steps = np.empty((T, runs), dtype=np.min_scalar_type(len(q) - 1))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(runs)):
        steps[:, r] = cdf.searchsorted(np.random.default_rng(child).random(T), side="right")
    return steps


def monte_carlo_expected_cost(
    targets: list[LtiTarget],
    q: ScheduleDistribution,
    T: int,
    runs: int,
    seed: int,
) -> MonteCarloReport:
    """Expected scheduling cost under i.i.d. random target selection.

    Each run draws its own schedule from a child of the master seed, so
    results are reproducible and independent of batching. All runs are
    propagated together (see `_cost_paths`): the runs that share a
    target's observation history share its covariance, the targets of a
    dimension class share a kernel call per step, and every run reads
    exactly the costs it would on its own. Each target's run statistics
    are reduced from its (runs, T) cost matrix, one target at a time.
    """
    if len(q) != len(targets):
        raise ValueError(f"distribution is over {len(q)} targets, got {len(targets)}")
    if T < 1 or runs < 1:
        raise ValueError("T and runs must be at least 1")
    tail = max(1, T // 5)

    n = len(targets)
    steps = _draw_schedules(q, T, runs, seed)

    emp = np.empty((runs, n))
    tavg = np.empty((runs, n))
    mean_series = np.empty((T, n))
    for i, costs in _cost_paths(targets, steps):
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
    stacks = [t.Q[:, :, None] for t in targets]  # planes [n, n, leaves]
    committed = np.empty(T, dtype=np.int64)
    subtree = n ** (window - 1)
    for k in range(1 - window, T):
        # leaf b branches into leaves b * n + c, c the target observed next;
        # target i is observed on branch c = i and open loop on the others
        leaves = np.arange(n * stacks[0].shape[-1])
        for i, t in enumerate(targets):
            stacks[i] = _riccati_step(t, np.repeat(stacks[i], n, axis=-1), leaves % n == i)
        if k < 0:
            continue  # still building the first tree
        scores = np.max([t.cost_of(s) for t, s in zip(targets, stacks)], axis=0)
        move = int(np.argmin(scores)) // subtree
        committed[k] = move
        stacks = [s[..., move * subtree:(move + 1) * subtree] for s in stacks]
    seq = ScheduleSequence(steps=committed, n_targets=n)
    return seq, evaluate_schedule(targets, seq)
