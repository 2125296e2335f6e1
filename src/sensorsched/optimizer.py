"""Optimal observation probabilities under a shared-sensor budget.

The solver minimizes the worst steady-state cost max_i c_i(q_i) over
distributions q, each q_i at or above its floor: q^c + inner_tol, or the
target's priority when larger. Each c_i strictly falls as q_i grows
(Sinopoli et al., IEEE TAC 2004), so the optimum is the one distribution
where every target above its floor costs the same gamma, every target at
its floor costs at most gamma, and sum q = 1: any other one lowers some
free q_i, whose cost then rises above gamma.

It gets there by Newton's method on u_i = 1 / c_i; on c itself the step
vanishes near q^c, where c' reaches 1e10. Each step solves every target's
MARE once, warm started from the fixed point at the nearest smaller q it
has solved, with u_i' from the implicit function theorem
(`mare._fixed_point_slope`). The free targets solve u_i + u_i' dq_i = v
with sum dq = 1 - sum q, which gives v from three sequential sums. A
target the step would push below its floor is clamped to it, so floors
hold exactly, and a clamped target with u_i < v is released. A marginal
or unstable target moves at most halfway to its q^c per step: its tangent
overrates u far below q, and solves near q^c are slow. The solve stops
when the step is below 1e-12 and every free u_i is within 1e-10 relative
of v; gamma* is the largest cost at q*. Setup solves a target at q = 1,
cold, only to learn whether constant observation stabilizes it, and only
when rho(A) > 1 or a mode on the unit circle is unobservable: any other
target has q^c = 0, and no step starts from a fixed point at q = 1.

A step that does not lower the worst cost is halved until it does, which
a short enough step must: the worst target lies below v, so its q grows.
So the loop ends: each accepted step strictly lowers the worst cost, a
float bounded below by the optimum, and a step halved below 1e-12 ends
the solve at the best point found. Near the optimum Newton converges
quadratically (four steps on the README pair, one on the 20-target
benchmark). The distributed solver runs this same loop, flooding each
node's (q_i, u_i, u_i') once per step; all the loop knows of target i
sits in its `_Node`, which is what node i knows. Costs are
`target.cost_of` of the fixed point.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mare import _fixed_point_slope, critical_probability, solve_mare
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

    q_star is the optimal distribution (None when infeasible) and
    gamma_star the worst per-target cost at q_star, so every per-target
    cost is <= gamma_star. outer_iterations counts the Newton steps the
    solve evaluated, halved ones included, and inner_iterations the MARE
    solves it made (critical-probability searches aside).
    """

    gamma_star: float
    q_star: ScheduleDistribution | None
    per_target: tuple[PerTargetReport, ...]
    outer_iterations: int
    inner_iterations: int
    feasible: bool


# The solve stops when no probability moves by this much in a step ...
_STEP_TOL = 1e-12
# ... and every free target's u = 1 / cost lies this close to v, relatively.
_LEVEL_RTOL = 1e-10


class _Node:
    """One target's solver state: what node i knows in the distributed solve.

    `q_critical` is on the assigned scale (at most 1), `floor` the larger
    of the priority and q_critical + inner_tol (at most 1), `edge`
    q_critical, or -inf for a strictly stable target, whose cost is finite
    down to q = 0, and `stabilizable` whether constant observation gives
    the target a fixed point. That needs no solve when rho(A) <= 1 and
    every mode on the unit circle is observable (`validate_target`'s
    detectability): q^c is 0 then. Every other target is solved at q = 1
    at setup. `cost_one` is the cost at q = 1 (inf without a fixed
    point), solved on first read and from Q, so its bits do not depend on
    when that is. `fixed_points` maps each solved q to X; a solve starts
    from X at the largest smaller q (g_q falls with q, so g_q(X) <= X:
    Newton's certificate), so a fixed point at q = 1 never starts one.
    """

    def __init__(self, target: LtiTarget, loss: float, priority: float, inner_tol: float):
        self.target = target
        self.loss = loss
        qc_eff = critical_probability(target, tol=inner_tol)
        self.q_critical = min(qc_eff / (1.0 - loss), 1.0)
        self.floor = max(priority, min(self.q_critical + inner_tol, 1.0))
        stable = target.rho < 1.0 - _UNIT_CIRCLE_TOL
        self.edge = -np.inf if stable else self.q_critical
        self.fixed_points: dict[float, np.ndarray] = {}
        self.solves = 0
        on_circle = np.abs(target.eigs) >= 1.0 - _UNIT_CIRCLE_TOL
        qc_zero = target.rho <= 1.0 and (stable or target.pbh_modes[on_circle, 0].all())
        self.stabilizable = bool(qc_zero or np.isfinite(self.cost_one))

    @cached_property
    def cost_one(self) -> float:
        res = solve_mare(self.target, 1.0 - self.loss)
        self.solves += 1
        return float(self.target.cost_of(res.X)) if res.converged else float("inf")

    def solve(self, q: float) -> bool:
        """Solve the MARE at assigned probability q; True when it converged."""
        below = [p for p in self.fixed_points if p < q]
        x0 = self.fixed_points[max(below)] if below else None
        res = solve_mare(self.target, q * (1.0 - self.loss), x0=x0)
        self.solves += 1
        if res.converged:
            self.fixed_points[q] = res.X
        return res.converged

    def cost(self, q: float) -> float:
        """The cost at a solved q: inf when that solve did not converge."""
        X = self.fixed_points.get(q)
        return float("inf") if X is None else float(self.target.cost_of(X))

    def point(self, q: float) -> tuple[float, float, float]:
        """(q, u, u') with u = 1 / cost at q. Without a fixed point u is 0,
        and u' the secant slope to (1, 1 / cost_one), which pushes q up."""
        if not self.solve(q):
            return q, 0.0, 1.0 / (self.cost_one * (1.0 - q))
        c = self.cost(q)
        q_eff = q * (1.0 - self.loss)
        dc = (1.0 - self.loss) * float(
            self.target.cost_of(_fixed_point_slope(self.target, q_eff, self.fixed_points[q])))
        return q, 1.0 / c, -dc / (c * c)


def _step(point, bounds):
    """The Newton step from `point`, one (q_i, u_i, u_i') per target in node
    order, over per-target lower `bounds`: (the new q, which targets are
    free, v).

    Free targets solve u_i + u_i' dq_i = v, the others sit at their bounds,
    and the new q sums to one. Starting from every target free, each pass
    computes v and clamps the targets whose linear model reaches their
    bound at a level of v or above; v only falls from pass to pass, so a
    clamped target never returns, and every target left free has
    u_i + u_i' (bound_i - q_i) < v, which releases a target at its bound
    with u_i < v. A target whose cost does not fall with q (u_i' <= 0) is
    never free; when no target is, the step is zero.
    """
    free = [du > 0 for _, _, du in point]
    if not any(free):
        return [q for q, _, _ in point], free, np.inf
    while True:
        fixed = sum(b for b, fr in zip(bounds, free) if not fr)
        base = sum(q - u / du for (q, u, du), fr in zip(point, free) if fr)
        weight = sum(1.0 / du for (_, _, du), fr in zip(point, free) if fr)
        v = (1.0 - fixed - base) / weight
        still = [fr and u + du * (b - q) < v for (q, u, du), b, fr in zip(point, bounds, free)]
        if still == free:
            break
        free = still
    new = [q + (v - u) / du if fr else b for (q, u, du), b, fr in zip(point, bounds, free)]
    # v - u carries the rounding of v, which a flat cost (small u') turns
    # into a large error in q: the free targets share what the sum misses
    # in proportion to 1 / u', as they would share a change of v
    miss = 1.0 - sum(new)
    new = [max(b, a + miss / (du * weight)) if fr else b
           for a, (_, _, du), b, fr in zip(new, point, bounds, free)]
    return new, free, v


def solve_distribution(
    targets: list[LtiTarget],
    constraints: Constraints | None = None,
    inner_tol: float = 1e-5,
) -> SolveReport:
    """Minimize the worst per-target fixed-point cost over distributions.

    Newton's method on 1/cost as described in the module docstring;
    `constraints` adds probability floors (priorities) and channel loss.
    The scenario is feasible only if the floors and loss-adjusted critical
    probabilities leave total demand at most one; otherwise the report
    comes back with feasible=False and no distribution, and an
    InfeasibilityWarning names the violated condition.
    """
    return _newton(targets, constraints, inner_tol, lambda values: values)


def _newton(targets, constraints, inner_tol, flood) -> SolveReport:
    """The solver shared by solve_distribution and solve_distributed.

    `flood(values)` shares one entry per target with every node and returns
    them in node order: once at setup (floor, q^c, whether constant
    observation stabilizes the target: see `_Node`), once
    per evaluated point (q, u, u') and once for the read-out (costs at q*).
    The centralized solver passes the entries through, the distributed one
    also counts its floods, so their reports are bit-identical.
    """
    if not targets:
        raise ValueError("need at least one target")
    if not inner_tol > 0:
        raise ValueError("inner_tol must be positive")
    cons = constraints or Constraints()
    for name in ("priorities", "loss"):
        v = getattr(cons, name)
        if v is not None and v.shape[0] != len(targets):
            raise ValueError(f"{name} has length {v.shape[0]}, expected {len(targets)}")

    nodes = [_Node(t, cons.loss_rate(i), cons.priority(i), inner_tol)
             for i, t in enumerate(targets)]
    floors, edges, stabilizable = zip(*flood([(o.floor, o.edge, o.stabilizable) for o in nodes]))
    floor_total = sum(floors)

    # A target whose loss-adjusted critical probability reaches 1 cannot be
    # stabilized by any assignment, and floors that exceed the budget leave
    # no distribution.
    unstabilizable = [
        f"target {o.target.label or i} " + (
            f"cannot be stabilized: with loss {o.loss:.6g}, even constant observation "
            f"delivers it probability {1.0 - o.loss:.6g}, at or below its critical probability"
            if o.loss > 0 else "diverges even under constant observation")
        for i, (o, s) in enumerate(zip(nodes, stabilizable)) if not s
    ]
    if floor_total > 1.0 or unstabilizable:
        reason = "; ".join(unstabilizable) or (
            "priorities and loss-adjusted critical probabilities "
            f"demand total probability {floor_total:.6g} > 1"
        )
        warnings.warn(reason, InfeasibilityWarning, stacklevel=3)
        per = tuple(PerTargetReport(q=float("nan"), cost=float("inf"), q_critical=o.q_critical)
                    for o in nodes)
        return SolveReport(gamma_star=float("inf"), q_star=None, per_target=per,
                           outer_iterations=0, inner_iterations=0, feasible=False)

    # Start from the floors with the slack split evenly on top of them.
    slack = (1.0 - floor_total) / len(nodes)
    point = flood([o.point(f + slack) for o, f in zip(nodes, floors)])
    steps = 0
    while slack > 0:
        # at most halfway to a marginal or unstable target's q^c
        bounds = [max(f, (p[0] + e) / 2) for p, f, e in zip(point, floors, edges)]
        new, free, v = _step(point, bounds)
        size = max(abs(a - p[0]) for a, p in zip(new, point))
        if size < _STEP_TOL and all(
                abs(p[1] - v) <= _LEVEL_RTOL * v for p, fr in zip(point, free) if fr):
            break
        worst = min(p[1] for p in point)  # the least u: the worst cost
        t, trial = 1.0, new
        while True:
            steps += 1
            tried = flood([o.point(q) for o, q in zip(nodes, trial)])
            if min(p[1] for p in tried) > worst or t * size < _STEP_TOL:
                break
            t /= 2
            trial = [max(b, p[0] + t * (a - p[0])) for a, p, b in zip(new, point, bounds)]
        if min(p[1] for p in tried) <= worst:
            break  # no step lowers the worst cost: stop at the best point found
        point = tried

    q_star = [p[0] for p in point]
    costs = flood([o.cost(q) for o, q in zip(nodes, q_star)])
    per = tuple(PerTargetReport(q=q, cost=c, q_critical=o.q_critical)
                for o, q, c in zip(nodes, q_star, costs))
    return SolveReport(gamma_star=max(costs), q_star=ScheduleDistribution(np.array(q_star)),
                       per_target=per, outer_iterations=steps,
                       inner_iterations=sum(o.solves for o in nodes), feasible=True)
