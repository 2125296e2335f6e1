"""Optimal observation probabilities under a shared-sensor budget.

Minimizing the worst per-target steady-state cost subject to the
probabilities summing to one is quasi-convex: for a trial budget gamma,
each target independently needs some least probability to keep its
fixed-point cost within gamma, and the total demand (the sum of those
least probabilities) is non-increasing in gamma. The solver therefore
runs two nested bisections: an outer one on gamma keeping the demand at
the upper endpoint at most 1, and an inner one per target on q (the
fixed-point cost is non-increasing in q). The final probabilities are
rescaled to sum to one exactly, which can only lower each target's cost.
The distributed solver runs this same bisection; only the way the
demands are totalled differs. `_nested_bisection` is the only driver, so
floors and channel loss reach every inversion, demand total and bracket.

Per-target costs are `target.cost_of` applied to the fixed point: the
plain trace unless the target selects cost weights.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mare import critical_probability, solve_mare
from .model import LtiTarget, ScheduleDistribution

__all__ = [
    "Constraints",
    "PerTargetReport",
    "SolveReport",
    "InfeasibilityWarning",
    "solve_distribution",
]


class InfeasibilityWarning(UserWarning):
    """A budget or scenario admits no feasible probability assignment."""


@dataclass(frozen=True, eq=False)
class Constraints:
    """Optional per-target floors and channel loss rates.

    priorities: minimum probability alpha_i guaranteed to target i (0
    disables); their sum must leave room for a distribution. loss: the
    probability tau_i that an observation of target i is lost in the
    channel, so an assigned probability q delivers effective probability
    q * (1 - tau_i).
    """

    priorities: np.ndarray | None = None
    loss: np.ndarray | None = None

    def __post_init__(self):
        for name in ("priorities", "loss"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float).reshape(-1)
            if np.any(v < 0) or np.any(v >= 1):
                raise ValueError(f"{name} entries must lie in [0, 1)")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if self.priorities is not None and self.priorities.sum() > 1.0 + 1e-12:
            raise ValueError("priorities sum exceeds 1; no distribution can honor them")

    def priority(self, i: int) -> float:
        return 0.0 if self.priorities is None else float(self.priorities[i])

    def loss_rate(self, i: int) -> float:
        return 0.0 if self.loss is None else float(self.loss[i])


@dataclass(frozen=True, eq=False)
class PerTargetReport:
    """One target's slice of a solution."""

    q: float
    cost: float
    q_critical: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution of the scheduling problem.

    gamma_star is the certified budget (feasible outer endpoint), q_star
    the rescaled distribution (None when infeasible). Every per-target
    cost at q_star is <= gamma_star. Iteration counts cover the outer
    bisection and the total inner bisection steps.
    """

    gamma_star: float
    q_star: ScheduleDistribution | None
    per_target: tuple[PerTargetReport, ...]
    outer_iterations: int
    inner_iterations: int
    feasible: bool


class _CostOracle:
    """Memoized fixed-point cost of one target as a function of q.

    Inner bisections always probe midpoints of [q^c + tol, 1], so the same
    q values recur across outer iterations; caching makes repeated
    mu(gamma) evaluations cheap and exactly consistent. Non-converged
    solves (diverged or out of budget) count as cost infinity: only a
    certified fixed point may satisfy a budget.
    """

    def __init__(self, target: LtiTarget, mare_tol: float, loss: float):
        self.target = target
        self.mare_tol = mare_tol
        self.loss = loss
        self.cache: dict[float, float] = {}

    def cost(self, q_assigned: float) -> float:
        c = self.cache.get(q_assigned)
        if c is None:
            q_eff = q_assigned * (1.0 - self.loss)
            res = solve_mare(self.target, q_eff, tol=self.mare_tol)
            c = self.target.cost_of(res.X) if res.converged else float("inf")
            self.cache[q_assigned] = c
        return c


def _bisect_min_q(oracle: _CostOracle, gamma: float, q_floor: float, tol: float):
    """Least assigned q in [q_floor, 1] with cost <= gamma, and step count.

    Returns (1.0, 0) when even q = 1 misses the budget, which the driver
    never asks. The floor itself is never evaluated: when every probed
    midpoint is feasible the bisection collapses onto the floor from above,
    which keeps the usual width-tol guarantee without paying for a solve at
    the (typically near-critical, slowest) endpoint.
    """
    steps = 0
    if oracle.cost(1.0) > gamma:
        return 1.0, steps
    lo, hi = q_floor, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if oracle.cost(mid) <= gamma:
            hi = mid
        else:
            lo = mid
        steps += 1
    return hi, steps


def _critical_floor(target: LtiTarget, loss: float, inner_tol: float, mare_tol: float) -> tuple[float, float]:
    """(q_critical on the assigned scale, bisection floor just above it)."""
    qc_eff = critical_probability(target, tol=inner_tol, mare_tol=mare_tol)
    qc_assigned = min(qc_eff / (1.0 - loss), 1.0)
    return qc_assigned, min(qc_assigned + inner_tol, 1.0)


def _bracket(oracles, floors):
    """Budget bracket [lo, hi] with mu(hi) <= 1 <= mu(lo).

    lo: even the largest single-target cost under constant observation
    cannot be beaten, and at that budget the worst target demands all of
    the probability. hi: the cost of the uniform distribution that splits
    the slack 1 - sum(floors) evenly on top of the floors; each target
    then demands no more than its uniform share, so the demands sum to at
    most one.
    """
    lo = max(o.cost(1.0) for o in oracles)
    slack = (1.0 - sum(floors)) / len(floors)
    hi = max(o.cost(min(f + slack, 1.0)) for o, f in zip(oracles, floors))
    # Costs are non-increasing in q, so hi >= lo up to roundoff.
    return lo, max(hi, lo)


class _ExactTotal:
    """How the centralized solver totals the demand vector: Python's
    sequential sum, for bracket growth, outer steps and read-out alike."""

    def total(self, qs: list[float]) -> float:
        return sum(qs)

    def within_budget(self, qs: list[float], gamma: float, lo: float, hi: float) -> bool:
        return sum(qs) <= 1.0


def solve_distribution(
    targets: list[LtiTarget],
    constraints: Constraints | None = None,
    outer_tol: float = 1e-3,
    inner_tol: float = 1e-5,
    mare_tol: float = 1e-9,
) -> SolveReport:
    """Minimize the worst per-target fixed-point cost over distributions.

    Nested bisection as described in the module docstring; `constraints`
    adds probability floors (priorities) and channel loss. The scenario is
    feasible only if the floors and loss-adjusted critical probabilities
    leave total demand below one; otherwise the report comes back with
    feasible=False and no distribution, and an InfeasibilityWarning names
    the violated condition.
    """
    return _nested_bisection(targets, constraints, outer_tol, inner_tol, mare_tol, _ExactTotal())


def _nested_bisection(targets, constraints, outer_tol, inner_tol, mare_tol, demand) -> SolveReport:
    """The solver shared by solve_distribution and solve_distributed.

    `demand` says how the network totals the demand vector qs:
    `demand.total(qs)` is the exact sum, used for bracket growth and the
    read-out, and `demand.within_budget(qs, gamma, lo, hi)` is the verdict
    sum(qs) <= 1 of the outer step probing gamma in [lo, hi]. Every
    strategy totals with the same sequential sum, so all of them return
    bit-identical reports whenever their verdicts agree.
    """
    if not targets:
        raise ValueError("need at least one target")
    cons = constraints or Constraints()
    for name in ("priorities", "loss"):
        v = getattr(cons, name)
        if v is not None and v.shape[0] != len(targets):
            raise ValueError(f"{name} has length {v.shape[0]}, expected {len(targets)}")

    n = len(targets)
    losses = [cons.loss_rate(i) for i in range(n)]
    oracles = [_CostOracle(t, mare_tol, loss=losses[i]) for i, t in enumerate(targets)]
    crit = [_critical_floor(t, losses[i], inner_tol, mare_tol) for i, t in enumerate(targets)]
    floors = [max(cons.priority(i), crit[i][1]) for i in range(n)]

    # A target whose loss-adjusted critical probability reaches 1 cannot be
    # stabilized by any assignment, and floors that exhaust the budget leave
    # nothing to optimize over.
    unstabilizable = any(not np.isfinite(o.cost(1.0)) for o in oracles)
    if sum(floors) > 1.0 or unstabilizable:
        reason = (
            "a target diverges even under constant observation"
            if unstabilizable
            else "priorities and loss-adjusted critical probabilities "
            f"demand total probability {sum(floors):.6g} > 1"
        )
        warnings.warn(reason, InfeasibilityWarning, stacklevel=3)
        per = tuple(
            PerTargetReport(q=float("nan"), cost=float("inf"), q_critical=crit[i][0])
            for i in range(n)
        )
        return SolveReport(
            gamma_star=float("inf"),
            q_star=None,
            per_target=per,
            outer_iterations=0,
            inner_iterations=0,
            feasible=False,
        )

    lo, hi = _bracket(oracles, floors)
    outer = 0
    inner_total = 0

    def clamped_demands(gamma):
        nonlocal inner_total
        qs = []
        for i, o in enumerate(oracles):
            q, steps = _bisect_min_q(o, gamma, crit[i][1], inner_tol)
            inner_total += steps
            qs.append(max(q, cons.priority(i)))
        return qs

    # The bracket guarantees total demand at hi of at most 1 plus a few
    # inner tolerances. Usually that is comfortably below 1; when floors
    # eat nearly the whole budget it can sit a hair above, so expand hi
    # until the bisection invariant mu(hi) <= 1 actually holds. Demand
    # cannot drop below the floors, so when their sum plus bisection slop
    # pins mu above 1 the expansion stalls; accept the stalled budget then
    # and let the final rescale honor the floors to within the tolerance.
    prev_mu = float("inf")
    for _ in range(60):
        mu_hi = demand.total(clamped_demands(hi))
        if mu_hi <= 1.0:
            break
        if mu_hi >= prev_mu:
            warnings.warn(
                "floors leave no slack; they are honored only to within "
                "the inner tolerance",
                InfeasibilityWarning,
                stacklevel=3,
            )
            hi = lo
            break
        prev_mu = mu_hi
        lo, hi = hi, 2.0 * hi

    while hi - lo > outer_tol:
        gamma = (lo + hi) / 2
        if demand.within_budget(clamped_demands(gamma), gamma, lo, hi):
            hi = gamma
        else:
            lo = gamma
        outer += 1

    qs = clamped_demands(hi)
    mu = demand.total(qs)
    # Rescale so probabilities sum to one exactly; the factor is >= 1, so
    # every floor stays honored and every cost can only move down.
    q_star = np.array(qs) / mu
    per = tuple(
        PerTargetReport(
            q=float(q_star[i]),
            cost=oracles[i].cost(float(q_star[i])),
            q_critical=crit[i][0],
        )
        for i in range(n)
    )
    return SolveReport(
        gamma_star=hi,
        q_star=ScheduleDistribution(q_star),
        per_target=per,
        outer_iterations=outer,
        inner_iterations=inner_total,
        feasible=True,
    )
