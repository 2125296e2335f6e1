"""Filtering under a schedule, cost evaluation, and baselines.

The error covariance recursion never looks at measured values, only at
whether a measurement happened, so the estimation cost of any concrete
schedule is deterministic: propagate each target's prediction covariance,
apply the update exactly at its observation slots, and time-average the
traces. Monte Carlo over sampled schedules estimates the expected cost of
stochastic scheduling. A receding-horizon tree search, whose lookahead
tree is carried from step to step, is the deterministic planning baseline.

Time averages drop a short burn-in prefix (min(T // 5, 200) steps) so the
initial covariance choice does not bias finite-horizon readings of an
asymptotic quantity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mare import _riccati_step
from .model import LtiTarget, ScheduleDistribution
from .schedule import ScheduleSequence

__all__ = [
    "FilterState",
    "CostReport",
    "MonteCarloReport",
    "covariance_step",
    "kalman_step",
    "evaluate_schedule",
    "monte_carlo_expected_cost",
    "sliding_window_schedule",
    "default_burn_in",
]


def default_burn_in(T: int) -> int:
    return min(T // 5, 200)


def _burn_in(T: int, burn_in: int | None) -> int:
    """burn_in, or the default for T, checked to leave at least one step."""
    burn = default_burn_in(T) if burn_in is None else burn_in
    if not 0 <= burn < T:
        raise ValueError(f"burn_in must lie in [0, {T})")
    return burn


@dataclass(frozen=True, eq=False)
class FilterState:
    """Estimate x_hat[k|k] together with the next prediction covariance P[k+1|k]."""

    x_hat: np.ndarray
    P: np.ndarray


@dataclass(frozen=True, eq=False)
class CostReport:
    """Time-averaged trace cost of a schedule.

    per_target_avg_trace holds each target's average prediction-covariance
    trace after burn-in; max_over_targets is their maximum (the min-max
    objective this toolkit optimizes). half_width carries 95% confidence
    half-widths when the numbers are Monte Carlo estimates. trace_series
    is the optional full per-step trace matrix, one column per target.
    """

    per_target_avg_trace: np.ndarray
    max_over_targets: float
    half_width: np.ndarray | None = None
    trace_series: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Monte Carlo cost of stochastic scheduling.

    expected: terminal-window estimator (mean trace over the final 20% of
    steps, averaged over runs), the steady-state "empirical cost"
    reading. time_averaged: the same machinery applied to the whole
    post-burn-in horizon, which is the quantity the fixed-point bound
    speaks about. mean_trace_series averages the per-step traces across
    runs (one column per target).
    """

    expected: CostReport
    time_averaged: CostReport
    runs: int
    T: int
    mean_trace_series: np.ndarray | None = None


def covariance_step(target: LtiTarget, P: np.ndarray, observed: bool) -> np.ndarray:
    """One prediction-covariance update: correction applied only if observed."""
    return _riccati_step(target, np.asarray(P, dtype=float), 1.0 if observed else 0.0)


def kalman_step(
    target: LtiTarget, state: FilterState, measurement: np.ndarray | None = None
) -> FilterState:
    """Advance the filter one step, fusing the measurement when present.

    The covariance track is exactly covariance_step applied to state.P, so
    filtering a schedule and evaluating it report identical traces.
    """
    A, C, R = target.A, target.C, target.R
    P = state.P
    x_prior = A @ state.x_hat
    if measurement is None:
        x_post = x_prior
    else:
        y = np.asarray(measurement, dtype=float).reshape(-1)
        if y.shape[0] != target.p:
            raise ValueError(f"measurement has dimension {y.shape[0]}, expected {target.p}")
        K = np.linalg.solve(C @ P @ C.T + R, C @ P).T
        x_post = x_prior + K @ (y - C @ x_prior)
    return FilterState(x_hat=x_post, P=covariance_step(target, P, measurement is not None))


def _initial_covariances(targets, P0):
    if P0 is None:
        return [t.Q.copy() for t in targets]
    if len(P0) != len(targets):
        raise ValueError(f"got {len(P0)} initial covariances for {len(targets)} targets")
    return [np.asarray(P, dtype=float).copy() for P in P0]


def evaluate_schedule(
    targets: list[LtiTarget],
    seq: ScheduleSequence,
    P0: list[np.ndarray] | None = None,
    *,
    burn_in: int | None = None,
    keep_series: bool = False,
) -> CostReport:
    """Deterministic cost of a concrete schedule.

    Propagates every target's prediction covariance across the sequence
    (observed exactly at its slots) and averages the traces after
    burn-in. The sequence is used as given; tile it beforehand to
    approximate long-run behavior of a periodic schedule.
    """
    if seq.n_targets != len(targets):
        raise ValueError(f"sequence is over {seq.n_targets} targets, got {len(targets)}")
    T = len(seq)
    burn = _burn_in(T, burn_in)
    traces = np.empty((T, len(targets)))
    covs = _initial_covariances(targets, P0)
    for i, target in enumerate(targets):
        P = covs[i]
        observed = np.equal(seq.steps, i)
        for k in range(T):
            traces[k, i] = np.trace(P)
            P = covariance_step(target, P, bool(observed[k]))
    avg = traces[burn:].mean(axis=0)
    return CostReport(
        per_target_avg_trace=avg,
        max_over_targets=float(avg.max()),
        trace_series=traces if keep_series else None,
    )


def monte_carlo_expected_cost(
    targets: list[LtiTarget],
    q: ScheduleDistribution,
    T: int,
    runs: int,
    seed: int,
    *,
    burn_in: int | None = None,
    keep_mean_series: bool = False,
) -> MonteCarloReport:
    """Expected scheduling cost under i.i.d. random target selection.

    Each run draws its own schedule from a child of the master seed, so
    results are reproducible and independent of batching. Covariances
    advance for all runs simultaneously, which keeps 5000-run studies at
    interactive speed.
    """
    if len(q) != len(targets):
        raise ValueError(f"distribution is over {len(q)} targets, got {len(targets)}")
    if T < 1 or runs < 1:
        raise ValueError("T and runs must be at least 1")
    burn = _burn_in(T, burn_in)
    tail = max(1, T // 5)

    children = np.random.SeedSequence(seed).spawn(runs)
    schedules = np.empty((runs, T), dtype=np.int64)
    n = len(targets)
    for r in range(runs):
        rng = np.random.default_rng(children[r])
        schedules[r] = rng.choice(n, size=T, p=q.q)

    emp = np.empty((runs, n))
    tavg = np.empty((runs, n))
    mean_series = np.zeros((T, n)) if keep_mean_series else None
    for i, target in enumerate(targets):
        P = np.broadcast_to(target.Q, (runs, *target.Q.shape)).copy()
        traces = np.empty((runs, T))
        observed = schedules == i
        for k in range(T):
            traces[:, k] = np.trace(P, axis1=1, axis2=2)
            P = _riccati_step(target, P, observed[:, k, None, None])
        emp[:, i] = traces[:, T - tail:].mean(axis=1)
        tavg[:, i] = traces[:, burn:].mean(axis=1)
        if keep_mean_series:
            mean_series[:, i] = traces.mean(axis=0)

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
    P0: list[np.ndarray] | None = None,
) -> tuple[ScheduleSequence, CostReport]:
    """Receding-horizon tree search baseline.

    At each step, score every observation sequence over the lookahead
    window by its end-of-window worst-case trace, commit only the first
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
    stacks = [P[None, :, :] for P in _initial_covariances(targets, P0)]
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
        scores = np.max(
            [np.trace(s, axis1=1, axis2=2) for s in stacks], axis=0
        )
        move = int(np.argmin(scores)) // subtree
        committed[k] = move
        stacks = [s[move * subtree:(move + 1) * subtree] for s in stacks]
    seq = ScheduleSequence(steps=committed, n_targets=n)
    return seq, evaluate_schedule(targets, seq, P0)
