"""Budget inversion and the nested bisection solver.

The two frozen solutions (re-derived independently before being pinned):

* benchmark pair: gamma* = 59.0734 with q* = (0.6740, 0.3260)
* chain trio: gamma* = 17.3415 with q* = (0.0649, 0.1612, 0.7739)
"""
import warnings

import numpy as np
import pytest

from sensorsched import (
    Constraints,
    InfeasibilityWarning,
    LtiTarget,
    solve_distribution,
    solve_mare,
)
from sensorsched.optimizer import (
    _bisect_min_q,
    _bracket,
    _CostOracle,
    _critical_floor,
    _ExactTotal,
    _nested_bisection,
)

PAIR_GAMMA = 59.0734
PAIR_Q = (0.6740, 0.3260)
TRIO_GAMMA = 17.3415
TRIO_Q = (0.0649, 0.1612, 0.7739)
INNER_TOL, MARE_TOL = 1e-5, 1e-9


def scalar_target(a: float) -> LtiTarget:
    return LtiTarget(A=[[a]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])


def cost_at(target: LtiTarget, q: float) -> float:
    res = solve_mare(target, q)
    return target.cost_of(res.X) if res.converged else float("inf")


def min_q(target: LtiTarget, gamma: float) -> tuple[float, int]:
    """The driver's inner inversion of one lossless target at its own floor."""
    _, floor = _critical_floor(target, 0.0, INNER_TOL, MARE_TOL)
    return _bisect_min_q(_CostOracle(target, MARE_TOL, 0.0), gamma, floor, INNER_TOL)


class RecordingTotal(_ExactTotal):
    """The centralized demand strategy, recording every total it forms:
    `totals` for bracket growth and read-out, `steps` as (lo, hi, gamma,
    total) per outer step."""

    def __init__(self):
        self.totals, self.steps = [], []

    def total(self, qs):
        self.totals.append(sum(qs))
        return super().total(qs)

    def within_budget(self, qs, gamma, lo, hi):
        self.steps.append((lo, hi, gamma, sum(qs)))
        return super().within_budget(qs, gamma, lo, hi)


def recorded_solve(targets) -> RecordingTotal:
    demand = RecordingTotal()
    _nested_bisection(targets, None, 1e-3, INNER_TOL, MARE_TOL, demand)
    return demand


class TestBudgetInversion:
    def test_meets_budget_tightly(self, pair):
        t = pair[0]
        gamma = 55.0
        q, _ = min_q(t, gamma)
        assert cost_at(t, q) <= gamma
        assert cost_at(t, q - 5e-4) > gamma

    def test_monotone_in_budget(self, pair):
        t = pair[1]
        qs = [min_q(t, g)[0] for g in (20.0, 40.0, 80.0)]
        assert qs[0] > qs[1] > qs[2]

    def test_unreachable_budget_returns_one(self, pair):
        # constant observation of the noisy system still costs ~46
        assert min_q(pair[0], 10.0) == (1.0, 0)

    def test_total_demand_decreases(self, pair):
        probes = sorted((gamma, mu) for _, _, gamma, mu in recorded_solve(pair).steps)
        demands = [mu for _, mu in probes]
        assert all(a >= b for a, b in zip(demands, demands[1:]))
        # the probes straddle the threshold, so the ordering is not vacuous
        assert demands[0] > 1.0 >= demands[-1]

    def test_bracket_encloses_unit_demand(self, pair):
        demand = recorded_solve(pair)
        floors = [_critical_floor(t, 0.0, INNER_TOL, MARE_TOL)[1] for t in pair]
        lo, hi = _bracket([_CostOracle(t, MARE_TOL, 0.0) for t in pair], floors)
        # the first outer step bisects the initial bracket, not a grown one
        assert demand.steps[0][:2] == (lo, hi)
        assert lo <= hi
        assert sum(min_q(t, lo)[0] for t in pair) >= 1.0 - 1e-9
        # bracket growth first totals the demand at hi
        assert demand.totals[0] == sum(min_q(t, hi)[0] for t in pair) <= 1.0 + 2 * INNER_TOL


class TestSolve:
    def test_pair_solution(self, pair):
        report = solve_distribution(pair)
        assert report.feasible
        assert report.gamma_star == pytest.approx(PAIR_GAMMA, abs=0.02)
        for got, want in zip(report.q_star.q, PAIR_Q):
            assert got == pytest.approx(want, abs=2e-3)
        assert report.outer_iterations > 0
        assert report.inner_iterations > 0

    def test_pair_report_invariants(self, pair):
        report = solve_distribution(pair)
        assert report.q_star.q.sum() == pytest.approx(1.0, abs=1e-9)
        for pt in report.per_target:
            assert pt.q_critical <= pt.q <= 1.0
            assert pt.cost <= report.gamma_star + 1e-9

    def test_chain_trio_solution(self, chain_trio):
        report = solve_distribution(chain_trio)
        assert report.gamma_star == pytest.approx(TRIO_GAMMA, abs=0.02)
        for got, want in zip(report.q_star.q, TRIO_Q):
            assert got == pytest.approx(want, abs=2e-3)

    def test_single_target_gets_everything(self, pair):
        t = pair[0]
        report = solve_distribution([t])
        assert report.q_star.q[0] == pytest.approx(1.0)
        assert report.gamma_star == pytest.approx(cost_at(t, 1.0), rel=1e-9)

    def test_tighter_tolerance_refines(self, pair):
        rough = solve_distribution(pair, outer_tol=0.1)
        fine = solve_distribution(pair, outer_tol=1e-3)
        # both certify feasible budgets, the finer one certifies a lower one
        assert fine.gamma_star <= rough.gamma_star + 1e-12
        assert rough.gamma_star - fine.gamma_star < 0.1 + 1e-3

    def test_costs_equalize(self, pair):
        """At the optimum every target sits essentially on the budget."""
        report = solve_distribution(pair)
        costs = [pt.cost for pt in report.per_target]
        assert max(costs) - min(costs) < 0.05


class TestConstraints:
    def test_defaults_are_free(self):
        cons = Constraints()
        assert cons.priority(0) == 0.0
        assert cons.loss_rate(3) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(priorities=[0.6, 0.6]),
            dict(priorities=[-0.1, 0.2]),
            dict(priorities=[1.0, 0.1]),
            dict(loss=[0.5, 1.0]),
            dict(loss=[-0.2, 0.0]),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Constraints(**kwargs)

    def test_length_mismatch_rejected(self, pair):
        with pytest.raises(ValueError, match="length"):
            solve_distribution(pair, constraints=Constraints(priorities=[0.2, 0.2, 0.2]))

    def test_priority_floor_is_honored(self, pair):
        free = solve_distribution(pair)
        floored = solve_distribution(
            pair, constraints=Constraints(priorities=[0.0, 0.45])
        )
        assert floored.q_star.q[1] >= 0.45 - 1e-9
        # forcing extra probability onto the second target can only hurt
        assert floored.gamma_star >= free.gamma_star - 1e-3

    def test_loss_raises_the_budget(self, pair):
        free = solve_distribution(pair)
        lossy = solve_distribution(pair, constraints=Constraints(loss=[0.3, 0.0]))
        assert lossy.feasible
        assert lossy.gamma_star > free.gamma_star
        for pt in lossy.per_target:
            assert pt.cost <= lossy.gamma_star + 1e-9


class TestInfeasible:
    def test_overcommitted_critical_floors(self, unstable_scalar):
        targets = [unstable_scalar, unstable_scalar]  # q^c = 0.75 each
        with pytest.warns(InfeasibilityWarning, match="total probability"):
            report = solve_distribution(targets)
        assert not report.feasible
        assert report.gamma_star == float("inf")
        assert report.q_star is None
        for pt in report.per_target:
            assert np.isnan(pt.q)
            assert pt.cost == float("inf")
            assert pt.q_critical == pytest.approx(0.75, abs=3e-4)

    def test_loss_can_make_a_target_hopeless(self, unstable_scalar):
        # a = 2 needs q_eff > 0.75; with 60% loss even q = 1 gives 0.4
        with pytest.warns(InfeasibilityWarning, match="constant observation"):
            report = solve_distribution(
                [unstable_scalar], constraints=Constraints(loss=[0.6])
            )
        assert not report.feasible

    @pytest.mark.filterwarnings("ignore::sensorsched.ConditioningWarning")
    def test_floors_without_slack_warn(self, no_slack_pair):
        with pytest.warns(InfeasibilityWarning, match="floors leave no slack"):
            report = solve_distribution(no_slack_pair)
        # the stalled bracket growth leaves nothing to bisect, and the
        # read-out's rescale still gives a distribution within the budget
        assert report.feasible
        assert report.outer_iterations == 0
        assert report.q_star.q.tolist() == [0.5, 0.5]
        for pt in report.per_target:
            assert pt.q_critical < pt.q
            assert pt.cost <= report.gamma_star

    def test_feasible_solve_emits_no_warning(self, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_distribution(pair)
        assert report.feasible
