"""Budget inversion and the nested bisection solver.

The two frozen solutions (re-derived independently before being pinned):

* benchmark pair: gamma* = 59.0734 with q* = (0.6740, 0.3260)
* chain trio: gamma* = 17.3415 with q* = (0.0649, 0.1612, 0.7739)
"""
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from sensorsched import (
    ConditioningWarning,
    Constraints,
    DelayChainSpec,
    InfeasibilityWarning,
    LtiTarget,
    critical_probability,
    expand_delay_chain,
    solve_distributed,
    solve_distribution,
    solve_mare,
)
from sensorsched import model, optimizer
from sensorsched.optimizer import (
    _bisect_min_q,
    _bracket,
    _CostOracle,
    _nested_bisection,
)

PAIR_GAMMA = 59.0734
PAIR_Q = (0.6740, 0.3260)
TRIO_GAMMA = 17.3415
TRIO_Q = (0.0649, 0.1612, 0.7739)
INNER_TOL = 1e-5


def scalar_target(a: float) -> LtiTarget:
    return LtiTarget(A=[[a]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])


def cost_at(target: LtiTarget, q: float) -> float:
    res = solve_mare(target, q)
    return target.cost_of(res.X) if res.converged else float("inf")


def oracle_of(target: LtiTarget) -> _CostOracle:
    """The driver's cost oracle of one lossless target without a priority."""
    return _CostOracle(target, 0.0, 0.0, INNER_TOL)


def min_q(target: LtiTarget, gamma: float) -> float:
    """The driver's inner inversion of one lossless target at its own floor."""
    return _bisect_min_q(oracle_of(target), gamma, INNER_TOL)


class RecordingTotal:
    """The centralized total, `sum`, recording every total it forms as
    (gamma, total), gamma the budget the demands were last inverted at:
    bracket growth first, then one per outer step, then the read-out."""

    def __init__(self):
        self.totals, self.gamma = [], None

    def __call__(self, qs):
        self.totals.append((self.gamma, sum(qs)))
        return sum(qs)


@pytest.fixture()
def oracles(monkeypatch) -> list[_CostOracle]:
    """Every cost oracle the solver builds, in the order it builds them."""
    made = []

    class CountedOracle(_CostOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(optimizer, "_CostOracle", CountedOracle)
    return made


def recorded_solve(targets) -> RecordingTotal:
    demand = RecordingTotal()
    bisect = optimizer._bisect_min_q

    def recorded(oracle, gamma, tol):
        demand.gamma = gamma
        return bisect(oracle, gamma, tol)

    with mock.patch.object(optimizer, "_bisect_min_q", recorded):
        _nested_bisection(targets, None, 1e-3, INNER_TOL, demand)
    return demand


class TestBudgetInversion:
    def test_meets_budget_tightly(self, pair):
        t = pair[0]
        gamma = 55.0
        q = min_q(t, gamma)
        assert cost_at(t, q) <= gamma
        assert cost_at(t, q - 5e-4) > gamma

    def test_monotone_in_budget(self, pair):
        t = pair[1]
        qs = [min_q(t, g) for g in (20.0, 40.0, 80.0)]
        assert qs[0] > qs[1] > qs[2]

    def test_unreachable_budget_returns_one(self, pair):
        # constant observation of the noisy system still costs ~46
        assert min_q(pair[0], 10.0) == 1.0

    def test_total_demand_decreases(self, pair):
        probes = sorted(recorded_solve(pair).totals)
        demands = [mu for _, mu in probes]
        assert all(a >= b for a, b in zip(demands, demands[1:]))
        # the probes straddle the threshold, so the ordering is not vacuous
        assert demands[0] > 1.0 >= demands[-1]

    def test_bracket_encloses_unit_demand(self, pair):
        demand = recorded_solve(pair)
        lo, hi = _bracket([oracle_of(t) for t in pair])
        # the first outer step bisects the initial bracket, not a grown one
        assert demand.totals[1][0] == (lo + hi) / 2
        assert lo <= hi
        assert sum(min_q(t, lo) for t in pair) >= 1.0 - 1e-9
        # bracket growth first totals the demand at hi
        assert demand.totals[0][0] == hi
        assert demand.totals[0][1] == sum(min_q(t, hi) for t in pair) <= 1.0 + 2 * INNER_TOL


class TestFloorFirst:
    def test_stable_floor_meeting_the_budget_is_returned_exactly(self):
        # rho(A) = 0.5, so the floor is INNER_TOL and its cost ~ 4/3 meets 10
        t = scalar_target(0.5)
        oracle = oracle_of(t)
        assert _bisect_min_q(oracle, 10.0, INNER_TOL) == INNER_TOL
        assert sorted(oracle.cache) == sorted(oracle.fixed_points) == [INNER_TOL, 1.0]
        assert oracle.steps == 0
        assert cost_at(t, INNER_TOL) <= 10.0

    def test_floor_probe_seeds_later_warm_starts(self, pair, monkeypatch):
        # drifty's floor misses every budget here, yet its fixed point is
        # kept: the first midpoint starts from it, like any converged solve
        starts = []
        real_solve = optimizer.solve_mare

        def recording_solve(target, q, **kwargs):
            starts.append((q, kwargs.get("x0")))
            return real_solve(target, q, **kwargs)

        monkeypatch.setattr(optimizer, "solve_mare", recording_solve)
        probed, plain = oracle_of(pair[1]), oracle_of(pair[1])
        plain.stable = False
        for gamma in (40.0, 59.0, 80.0, 59.07):
            assert _bisect_min_q(probed, gamma, INNER_TOL) == _bisect_min_q(
                plain, gamma, INNER_TOL
            )
        # only q = 1, solved first, and the floor, with nothing below it,
        # start from Q; the plain oracle starts cold at each new least q
        assert probed.warm_starts == len(probed.cache) - 2 > plain.warm_starts
        q_floor, q_mid = INNER_TOL, (INNER_TOL + 1.0) / 2
        assert [q for q, _ in starts[:3]] == [1.0, q_floor, q_mid]
        assert starts[2][1] is probed.fixed_points[q_floor]
        assert probed.cache.pop(q_floor) > 80.0
        assert sorted(probed.cache) == sorted(plain.cache)
        assert probed.steps == plain.steps > 0

    def test_priority_is_the_floor_a_stable_target_probes(self):
        # rho(A) = 0.5: its cost falls with q, and the priority 0.3 meets 10
        t = scalar_target(0.5)
        oracle = _CostOracle(t, 0.0, 0.3, INNER_TOL)
        assert oracle.floor == 0.3
        assert _bisect_min_q(oracle, 10.0, INNER_TOL) == 0.3
        assert sorted(oracle.cache) == [0.3, 1.0]
        assert oracle.steps == 0
        # a budget the priority misses bisects on [0.3, 1] and lands above it
        gamma = cost_at(t, 0.6)
        q = _bisect_min_q(oracle, gamma, INNER_TOL)
        assert 0.3 < q <= 0.6 + INNER_TOL
        assert min(oracle.cache) == 0.3

    def test_marginal_and_unstable_targets_never_probe_their_floor(self, oracles):
        # a solve at the floor of the a = 1 chain (q = 1e-5) or just above
        # q^c of the a = 1.3 scalar is near-critical and would warn
        targets = [
            expand_delay_chain(DelayChainSpec(a=1.0, Q=1.0, R=1.0, d=1)),
            scalar_target(1.3),
            scalar_target(0.5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            report = solve_distribution(targets)
        assert report.feasible
        assert [o.stable for o in oracles] == [False, False, True]
        assert [o.floor in o.cache for o in oracles] == [False, False, True]


class TestSpectrumIsComputedOnce:
    """A built target carries its eigenvalues; no solver layer recomputes
    them."""

    @staticmethod
    def refuse_eigvals(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvals called on a built target")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)

    def test_solvers_read_the_spectrum_from_the_target(self, pair, monkeypatch):
        targets = [
            *pair,
            scalar_target(1.3),
            expand_delay_chain(DelayChainSpec(a=1.0, Q=1.0, R=1.0, d=1)),
        ]
        self.refuse_eigvals(monkeypatch)
        central = solve_distribution(targets)
        ring = solve_distributed(targets).solution
        assert central.feasible
        assert np.array_equal(central.q_star.q, ring.q_star.q)

    def test_critical_probability_reads_the_spectrum_from_the_target(self, monkeypatch):
        closed_form = scalar_target(1.3)
        # two outputs and two unstable modes: beyond the closed form, so it
        # is bisected; with C = I its q^c is the lower bound 1 - 1/1.2^2
        bisected = LtiTarget(A=np.diag([1.2, 1.1]), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
        hopeless = LtiTarget(A=[[2.0]], C=[[0.0]], Q=[[1.0]], R=[[1.0]])
        self.refuse_eigvals(monkeypatch)
        assert critical_probability(closed_form) == 1.0 - 1.0 / 1.3**2
        lower = 1.0 - 1.0 / 1.2**2
        assert lower <= critical_probability(bisected, tol=0.05) <= lower + 0.05
        with pytest.warns(RuntimeWarning, match="cannot be stabilized"):
            assert critical_probability(hopeless) == 1.0


class TestClosedFormIsComputedOnce:
    """A target's closed-form critical probability is derived once, however
    many solves near it check for criticality."""

    def test_rank_tests_run_once_per_target(self, monkeypatch):
        # 100 Q makes the stable target costly, which pushes the a = 1.3
        # scalar's demand to within 1e-3 of its q^c: near-critical solves
        heavy = LtiTarget(A=[[0.0, 1.0], [-0.72, 1.7]], C=[[1.0, 0.0]],
                          Q=100 * np.eye(2), R=[[1.0]])
        # one output, a complex pair of unstable modes
        rotation = LtiTarget(A=[[0.5943, -0.9256], [0.9256, 0.5943]], C=[[1.0, 0.0]],
                             Q=np.eye(2), R=[[1.0]])
        targets = [scalar_target(1.3), rotation, heavy]
        unstable_modes = 1 + 2
        ranks = []
        real_rank = model._pbh_rank
        # in every module that holds it, so a rank test anywhere is counted
        for name, module in list(sys.modules.items()):
            if name.startswith("sensorsched") and vars(module).get("_pbh_rank") is real_rank:
                monkeypatch.setattr(module, "_pbh_rank",
                                    lambda M: ranks.append(M) or real_rank(M))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConditioningWarning)
            report = solve_distribution(targets)
        assert report.feasible
        assert sum(issubclass(w.category, ConditioningWarning) for w in caught) > 10
        # an observability and a controllability test per unstable mode
        assert len(ranks) <= 2 * unstable_modes
        assert [pt.q_critical for pt in report.per_target[:2]] == [
            t.critical_closed_form for t in targets[:2]
        ]


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

    @pytest.mark.parametrize("outer_tol", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize(
        "solve",
        [solve_distribution, lambda targets, **kw: solve_distributed(targets, **kw).solution],
        ids=["centralized", "distributed"],
    )
    def test_outer_tol_must_be_positive(self, pair, solve, outer_tol):
        # at 0 or below the bisection would never end; NaN would skip it
        with pytest.raises(ValueError, match="outer_tol must be positive"):
            solve(pair, outer_tol=outer_tol)

    @pytest.mark.parametrize("inner_tol", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize(
        "solve",
        [solve_distribution, lambda targets, **kw: solve_distributed(targets, **kw).solution],
        ids=["centralized", "distributed"],
    )
    def test_inner_tol_must_be_positive(self, solve, inner_tol):
        # a NaN inner_tol used to skip every bisection and return (0.5, 0.5)
        targets = [scalar_target(1.1), scalar_target(0.9)]
        with pytest.raises(ValueError, match="inner_tol must be positive"):
            solve(targets, inner_tol=inner_tol)

    def test_needs_a_target(self):
        with pytest.raises(ValueError, match="need at least one target"):
            solve_distribution([])

    def test_solves_start_from_smaller_fixed_points(self, pair, oracles):
        report = solve_distribution(pair)
        # 249 bisection solves plus one floor probe per (stable) target
        assert sum(len(o.cache) for o in oracles) == 251
        # 1480 iterations when every solve starts from Q
        assert sum(o.iterations for o in oracles) <= 700
        assert sum(o.warm_starts for o in oracles) >= 1
        # the README's printed solution
        assert f"{report.gamma_star:.4f}" == "59.0734"
        assert [f"{q:.4f}" for q in report.q_star.q] == ["0.6740", "0.3260"]

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
            dict(priorities=[float("nan"), 0.1]),
            dict(loss=[0.2, float("nan")]),
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
        with pytest.warns(InfeasibilityWarning) as caught:
            report = solve_distribution(
                [unstable_scalar], constraints=Constraints(loss=[0.6])
            )
        assert not report.feasible
        assert [str(w.message) for w in caught] == [
            "target unstable cannot be stabilized: with loss 0.6, even constant observation "
            "delivers it probability 0.4, at or below its critical probability"
        ]

    def test_unobservable_target_is_named_by_its_index(self, unstable_scalar):
        # C = 0: no schedule helps, loss or no loss
        blind = LtiTarget(A=[[2.0]], C=[[0.0]], Q=[[1.0]], R=[[1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = solve_distribution([unstable_scalar, blind])
        assert not report.feasible
        assert [str(w.message) for w in caught if w.category is InfeasibilityWarning] == [
            "target 1 diverges even under constant observation"
        ]

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
