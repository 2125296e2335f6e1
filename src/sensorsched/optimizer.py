"""Optimal observation probabilities under a shared-sensor budget.

Minimizing the worst per-target steady-state cost subject to the
probabilities summing to one is quasi-convex: for a trial budget gamma,
each target independently needs some least probability to keep its
fixed-point cost within gamma, and the total demand (the sum of those
least probabilities) is non-increasing in gamma. The solver therefore
runs two nested bisections: an outer one on gamma keeping the demand at
the upper endpoint at most 1, and an inner one per target on q over
[floor, 1] (the fixed-point cost is non-increasing in q). A target's
floor is q^c + tol, or its priority when that is larger. A strictly
stable target (rho(A) < 1) has q^c = 0 and a cheap fixed point at its
floor, so the inner inversion tries that floor first and skips the
bisection when it meets the budget; a marginal or unstable target never
solves at its floor, just above q^c, where the solve is slow or
ill-conditioned. The final probabilities are rescaled to sum to one
exactly, which can only lower each target's cost.
The distributed solver runs this same bisection; its network floods the
demands so every node forms the same sequential sum. `_nested_bisection`
is the only driver. All it knows of target i (loss, floor, q^c,
stability) sits in that target's `_CostOracle`, which is what node i
knows in the distributed solve.

Per-target costs are `target.cost_of` applied to the fixed point: the
plain trace unless the target selects cost weights.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mare import critical_probability, solve_mare
from .model import _UNIT_CIRCLE_TOL, LtiTarget, ScheduleDistribution

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
            if not np.all((v >= 0) & (v < 1)):
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
    """One target's solver state and memoized fixed-point cost of q.

    `q_critical` is the critical probability on the assigned scale (at
    most 1), `floor` the least demand: the larger of the priority and
    q_critical + inner_tol (at most 1), and `stable` says rho(A) < 1.
    Inner bisections always probe midpoints of [floor, 1] (and, for a
    stable target, the floor), so the same q values recur across outer
    iterations; caching makes repeated mu(gamma) evaluations cheap and
    exactly consistent. Non-converged solves (diverged or out of budget)
    count as cost infinity: only a certified fixed point may satisfy a
    budget.

    `cache` maps each assigned q to its cost, `fixed_points` each converged
    one to its fixed point X; a solve starts from X at the largest smaller
    q (g_q is non-increasing in q, so g_q(X) <= X: Newton's certificate).
    `iterations` counts MARE iterations, `warm_starts` such starts and
    `steps` inner bisection steps.
    """

    def __init__(self, target: LtiTarget, loss: float, priority: float, inner_tol: float):
        self.target = target
        self.loss = loss
        self.stable = target.rho < 1.0 - _UNIT_CIRCLE_TOL
        qc_eff = critical_probability(target, tol=inner_tol)
        self.q_critical = min(qc_eff / (1.0 - loss), 1.0)
        self.floor = max(priority, min(self.q_critical + inner_tol, 1.0))
        self.cache: dict[float, float] = {}
        self.fixed_points: dict[float, np.ndarray] = {}
        self.iterations = 0
        self.warm_starts = 0
        self.steps = 0

    def cost(self, q_assigned: float) -> float:
        c = self.cache.get(q_assigned)
        if c is None:
            q_eff = q_assigned * (1.0 - self.loss)
            below = [p for p in self.fixed_points if p < q_assigned]
            x0 = self.fixed_points[max(below)] if below else None
            res = solve_mare(self.target, q_eff, x0=x0)
            self.iterations += res.iterations
            self.warm_starts += x0 is not None
            if res.converged:
                self.fixed_points[q_assigned] = res.X
            c = float(self.target.cost_of(res.X)) if res.converged else float("inf")
            self.cache[q_assigned] = c
        return c


def _bisect_min_q(oracle: _CostOracle, gamma: float, tol: float) -> float:
    """Least assigned q in [floor, 1] with cost <= gamma: the target's demand.

    Returns 1.0 when even q = 1 misses the budget, which the driver never
    asks. A strictly stable target (rho(A) < 1) then tries its floor
    (tol, or its priority when larger): that fixed point lies below the
    Lyapunov solution and takes a few iterations, and the oracle caches
    its cost and keeps its X as a warm start like any other, so a target
    pays for it once per solve. When it meets gamma the floor is the
    answer, without bisecting. Any other target never evaluates its floor,
    which without a priority sits just above q^c, where a solve is
    slowest, or for rho(A) = 1 at q = tol, where it is ill-conditioned.
    Its bisection collapses onto the floor from above when every probed
    midpoint is feasible, which keeps the usual width-tol guarantee. Each
    bisection step adds one to `oracle.steps`.
    """
    if oracle.cost(1.0) > gamma:
        return 1.0
    if oracle.stable and oracle.cost(oracle.floor) <= gamma:
        return oracle.floor
    lo, hi = oracle.floor, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if oracle.cost(mid) <= gamma:
            hi = mid
        else:
            lo = mid
        oracle.steps += 1
    return hi


def _bracket(oracles):
    """Budget bracket [lo, hi] with mu(hi) <= 1 <= mu(lo).

    lo: even the largest single-target cost under constant observation
    cannot be beaten, and at that budget the worst target demands all of
    the probability. hi: the cost of the uniform distribution that splits
    the slack 1 - sum(floors) evenly on top of the floors; each target
    then demands no more than its uniform share, so the demands sum to at
    most one.
    """
    lo = max(o.cost(1.0) for o in oracles)
    slack = (1.0 - sum(o.floor for o in oracles)) / len(oracles)
    hi = max(o.cost(min(o.floor + slack, 1.0)) for o in oracles)
    # Costs are non-increasing in q, so hi >= lo up to roundoff.
    return lo, max(hi, lo)


def solve_distribution(
    targets: list[LtiTarget],
    constraints: Constraints | None = None,
    outer_tol: float = 1e-3,
    inner_tol: float = 1e-5,
) -> SolveReport:
    """Minimize the worst per-target fixed-point cost over distributions.

    Nested bisection as described in the module docstring; `constraints`
    adds probability floors (priorities) and channel loss. The scenario is
    feasible only if the floors and loss-adjusted critical probabilities
    leave total demand below one; otherwise the report comes back with
    feasible=False and no distribution, and an InfeasibilityWarning names
    the violated condition.
    """
    return _nested_bisection(targets, constraints, outer_tol, inner_tol, sum)


def _nested_bisection(targets, constraints, outer_tol, inner_tol, total) -> SolveReport:
    """The solver shared by solve_distribution and solve_distributed.

    `total(qs)` totals the demand vector qs wherever the bisection needs
    it: bracket growth, each outer step's verdict total <= 1 and the
    read-out. Both solvers pass the sequential `sum` (the distributed one
    also counts its floods), so their reports are bit-identical.
    """
    if not targets:
        raise ValueError("need at least one target")
    for name, tol in (("outer_tol", outer_tol), ("inner_tol", inner_tol)):
        if not tol > 0:
            raise ValueError(f"{name} must be positive")
    cons = constraints or Constraints()
    for name in ("priorities", "loss"):
        v = getattr(cons, name)
        if v is not None and v.shape[0] != len(targets):
            raise ValueError(f"{name} has length {v.shape[0]}, expected {len(targets)}")

    oracles = [_CostOracle(t, cons.loss_rate(i), cons.priority(i), inner_tol)
               for i, t in enumerate(targets)]
    floor_total = sum(o.floor for o in oracles)

    # A target whose loss-adjusted critical probability reaches 1 cannot be
    # stabilized by any assignment, and floors that exhaust the budget leave
    # nothing to optimize over.
    unstabilizable = [
        f"target {o.target.label or i} " + (
            f"cannot be stabilized: with loss {o.loss:.6g}, even constant observation "
            f"delivers it probability {1.0 - o.loss:.6g}, at or below its critical probability"
            if o.loss > 0 else "diverges even under constant observation")
        for i, o in enumerate(oracles) if not np.isfinite(o.cost(1.0))
    ]
    if floor_total > 1.0 or unstabilizable:
        reason = "; ".join(unstabilizable) or (
            "priorities and loss-adjusted critical probabilities "
            f"demand total probability {floor_total:.6g} > 1"
        )
        warnings.warn(reason, InfeasibilityWarning, stacklevel=3)
        per = tuple(
            PerTargetReport(q=float("nan"), cost=float("inf"), q_critical=o.q_critical)
            for o in oracles
        )
        return SolveReport(
            gamma_star=float("inf"),
            q_star=None,
            per_target=per,
            outer_iterations=0,
            inner_iterations=0,
            feasible=False,
        )

    lo, hi = _bracket(oracles)
    outer = 0

    def demands_at(gamma):
        return [_bisect_min_q(o, gamma, inner_tol) for o in oracles]

    # The bracket guarantees total demand at hi of at most 1 plus a few
    # inner tolerances. Usually that is comfortably below 1; when floors
    # eat nearly the whole budget it can sit a hair above, so expand hi
    # until the bisection invariant mu(hi) <= 1 actually holds. Demand
    # cannot drop below the floors, so when their sum plus bisection slop
    # pins mu above 1 the expansion stalls; accept the stalled budget then
    # and let the final rescale honor the floors to within the tolerance.
    prev_mu = float("inf")
    for _ in range(60):
        mu_hi = total(demands_at(hi))
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
        if total(demands_at(gamma)) <= 1.0:
            hi = gamma
        else:
            lo = gamma
        outer += 1

    qs = demands_at(hi)
    mu = total(qs)
    # Rescale so probabilities sum to one exactly; the factor is >= 1, so
    # every floor stays honored and every cost can only move down.
    q_star = np.array(qs) / mu
    per = tuple(
        PerTargetReport(q=float(q), cost=o.cost(float(q)), q_critical=o.q_critical)
        for o, q in zip(oracles, q_star)
    )
    return SolveReport(
        gamma_star=hi,
        q_star=ScheduleDistribution(q_star),
        per_target=per,
        outer_iterations=outer,
        inner_iterations=sum(o.steps for o in oracles),
        feasible=True,
    )
