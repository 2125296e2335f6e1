"""The Newton solver on 1/cost and its optimality conditions.

The frozen solutions (re-derived independently before being pinned):

* benchmark pair: gamma* = 59.0724 with q* = (0.6740, 0.3260)
* chain trio: gamma* = 17.3408 with q* = (0.0649, 0.1612, 0.7739)
"""
import sys
import warnings

import numpy as np
import pytest

from sensorsched import (
    ConditioningWarning,
    Constraints,
    DelayChainSpec,
    InfeasibilityWarning,
    LtiTarget,
    MareResult,
    MareStatus,
    closed_form_delay_chain,
    critical_probability,
    expand_delay_chain,
    ring_graph,
    solve_distributed,
    solve_distribution,
    solve_mare,
)
from sensorsched import mare, model, optimizer
from sensorsched.optimizer import _Node, _step

PAIR_GAMMA = 59.0724
PAIR_Q = (0.6740, 0.3260)
TRIO_GAMMA = 17.3408
TRIO_Q = (0.0649, 0.1612, 0.7739)
INNER_TOL = 1e-5


def scalar_target(a: float) -> LtiTarget:
    return LtiTarget(A=[[a]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])


def cost_at(target: LtiTarget, q: float) -> float:
    res = solve_mare(target, q)
    return target.cost_of(res.X) if res.converged else float("inf")


@pytest.fixture()
def nodes(monkeypatch) -> list[_Node]:
    """Every target state the solver builds, in the order it builds them."""
    made = []

    class CountedNode(_Node):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(optimizer, "_Node", CountedNode)
    return made


@pytest.fixture()
def solved(monkeypatch) -> list[tuple]:
    """(target, effective q, x0) of every solve_mare call the solver makes."""
    calls = []
    real_solve = optimizer.solve_mare

    def recording_solve(target, q, **kwargs):
        calls.append((target, q, kwargs.get("x0")))
        return real_solve(target, q, **kwargs)

    monkeypatch.setattr(optimizer, "solve_mare", recording_solve)
    return calls


class TestBudgetInversion:
    """At q* each free target's probability is the least that meets gamma*."""

    def test_meets_budget_tightly(self, pair):
        report = solve_distribution(pair)
        gamma = report.gamma_star
        for t, q in zip(pair, report.q_star.q):
            assert cost_at(t, q) <= gamma * (1 + 1e-9)
            assert cost_at(t, q - 5e-4) > gamma

    def test_monotone_in_budget(self, pair):
        # loss on drifty raises the budget; noisy then needs less probability
        reports = [solve_distribution(pair, constraints=Constraints(loss=[0.0, tau]))
                   for tau in (0.0, 0.2, 0.4)]
        gammas = [r.gamma_star for r in reports]
        qs = [r.q_star.q[0] for r in reports]
        assert gammas[0] < gammas[1] < gammas[2]
        assert qs[0] > qs[1] > qs[2]
        for r in reports:
            assert abs(r.per_target[0].cost - r.gamma_star) <= 1e-10 * r.gamma_star

    def test_unreachable_budget_returns_one(self, pair):
        # constant observation of the noisy system still costs ~46, ~70 with
        # half its observations lost: no budget below that is reachable
        t = pair[0]
        report = solve_distribution([t], constraints=Constraints(loss=[0.5]))
        assert report.q_star.q.tolist() == [1.0]
        assert report.gamma_star == pytest.approx(cost_at(t, 0.5), rel=1e-12)
        assert report.gamma_star > cost_at(t, 1.0) > 10.0


class TestFloorFirst:
    def test_stable_floor_meeting_the_budget_is_returned_exactly(self, pair):
        # rho(A) = 0.5, so the floor is INNER_TOL, whose cost ~ 4/3 is far
        # below what drifty costs even under constant observation
        t = scalar_target(0.5)
        report = solve_distribution([t, pair[1]])
        assert report.q_star.q[0] == INNER_TOL
        assert abs(report.q_star.q.sum() - 1.0) <= 1e-12
        assert report.per_target[0].cost == cost_at(t, INNER_TOL) <= report.gamma_star

    def test_floor_probe_seeds_later_warm_starts(self, nodes, solved):
        # the first step clamps the third target to its floor; that solve's
        # fixed point is kept, and the next step, which releases the target,
        # starts from it, like from any converged solve
        targets = [LtiTarget(A=[[a]], C=[[1.0]], Q=[[w]], R=[[1.0]])
                   for a, w in ((0.8, 8.0), (1.04, 9.0), (0.875, 3.5))]
        report = solve_distribution(targets, constraints=Constraints(priorities=[0, 0.13, 0]))
        third = nodes[2]
        starts = [(q, x0) for t, q, x0 in solved if t is third.target]
        assert third.floor == INNER_TOL
        # rho = 0.875 makes no solve at q = 1: the start (the floor and a
        # third of the slack), then the floor
        assert [q for q, _ in starts[:2]] == [
            pytest.approx((1.0 - 0.13 - 2 * INNER_TOL) / 3 + INNER_TOL), INNER_TOL]
        assert starts[2][0] > INNER_TOL
        assert starts[2][1] is third.fixed_points[INNER_TOL]
        assert report.q_star.q[2] > INNER_TOL
        costs = [pt.cost for pt in report.per_target]
        assert max(costs) - min(costs) <= 1e-10 * report.gamma_star

    def test_priority_is_the_floor_a_stable_target_probes(self, pair):
        # rho(A) = 0.5: its cost at the priority 0.3 is below drifty's
        t = scalar_target(0.5)
        report = solve_distribution([t, pair[1]], constraints=Constraints(priorities=[0.3, 0.0]))
        assert report.q_star.q[0] == 0.3
        assert report.q_star.q[1] == pytest.approx(0.7, abs=1e-12)
        assert report.per_target[0].cost < report.gamma_star == report.per_target[1].cost

    def test_marginal_and_unstable_targets_never_probe_their_floor(self, nodes, solved):
        # a solve at the floor of the a = 1 chain (q = 1e-5) or just above
        # q^c of the a = 1.3 scalar is near-critical and would warn; a step
        # takes such a target at most halfway to its q^c
        targets = [
            expand_delay_chain(DelayChainSpec(a=1.0, Q=1.0, R=1.0, d=1)),
            scalar_target(1.3),
            scalar_target(0.5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            report = solve_distribution(targets)
        assert report.feasible
        assert [o.edge for o in nodes] == [0.0, 1.0 - 1.0 / 1.3**2, -np.inf]
        for o in nodes[:2]:
            assert min(q for t, q, _ in solved if t is o.target) > o.edge + 1e-3


class TestStep:
    """One Newton step on (q, u, u') triples: the linear model of each free
    target's u meets a common v, the others sit at their bounds, and the
    new q sums to one."""

    def test_all_free_targets_meet_one_level(self):
        point = [(0.5, 1.0, 1.0), (0.3, 1.2, 4.0), (0.2, 1.4, 2.0)]
        new, free, v = _step(point, [0.0, 0.0, 0.0])
        assert free == [True, True, True]
        assert sum(new) == pytest.approx(1.0, abs=1e-15)
        for (q, u, du), a in zip(point, new):
            assert u + du * (a - q) == pytest.approx(v, rel=1e-14)

    def test_a_target_pushed_below_its_floor_is_clamped_exactly(self):
        # both free, v = 1.5 would take the second target to 0; its model
        # reaches its floor 0.1 at 1.6, so it is clamped and v falls to 1.4
        new, free, v = _step([(0.5, 1.0, 1.0), (0.5, 2.0, 1.0)], [0.1, 0.1])
        assert free == [True, False]
        assert v == pytest.approx(1.4, rel=1e-15)
        assert new[1] == 0.1
        assert new[0] == pytest.approx(0.9, abs=1e-15)

    def test_a_clamped_target_below_the_level_is_released(self):
        # the second target sits at its floor with u = 0.5 < v = 1.25
        new, free, v = _step([(0.9, 2.0, 1.0), (0.1, 0.5, 1.0)], [0.1, 0.1])
        assert free == [True, True]
        assert v == 1.25
        assert new == pytest.approx([0.15, 0.85], abs=1e-15)


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
        # scalar's q* to within 1e-3 of its q^c: near-critical solves
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
                                    lambda M, *floor: ranks.append(M) or real_rank(M, *floor))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConditioningWarning)
            report = solve_distribution(targets)
        assert report.feasible
        near_critical = sum(issubclass(w.category, ConditioningWarning) for w in caught)
        # an observability and a controllability test per unstable mode,
        # however many more near-critical solves read the closed form
        assert len(ranks) <= 2 * unstable_modes < near_critical
        assert [pt.q_critical for pt in report.per_target[:2]] == [
            t.critical_closed_form for t in targets[:2]
        ]


class TestSetup:
    """Setup solves a target at q = 1 only when its spectrum leaves open
    whether constant observation stabilizes it (`critical_closed_form` is
    None)."""

    @pytest.mark.parametrize("target", [
        scalar_target(0.5),
        LtiTarget(A=[[0.0, 1.0], [-0.49, 1.4]], C=[[1.0, 0.0]], Q=5 * np.eye(2), R=[[0.5]]),
        expand_delay_chain(DelayChainSpec(a=1.0, Q=2.0, R=1.0, d=2)),
        scalar_target(-1.0),
    ], ids=["stable-scalar", "noisy", "marginal-chain", "marginal-scalar"])
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_rho_at_most_one_makes_no_solve(self, target, loss, solved):
        assert target.rho <= 1.0
        node = _Node(target, loss, 0.0, INNER_TOL)
        assert node.stabilizable
        assert node.solves == 0 and solved == []
        assert "cost_one" not in vars(node)

    @pytest.mark.parametrize("spec, loss", [
        (DelayChainSpec(a=1.1, Q=1.0, R=1.0, d=2), 0.0),
        # q^c = 0.75 lies above the 0.7 that constant observation delivers
        (DelayChainSpec(a=2.0, Q=1.0, R=1.0), 0.3),
    ], ids=["closed-form-chain", "lossy-chain"])
    def test_closed_form_target_makes_no_solve(self, spec, loss, solved):
        # the closed form says what the solve at q = 1 - loss would
        target = expand_delay_chain(spec)
        node = _Node(target, loss, 0.0, 1e-3)
        assert node.solves == 0 and solved == []
        assert "cost_one" not in vars(node)
        assert node.stabilizable == (closed_form_delay_chain(spec, 1.0 - loss) is not None)

    @pytest.mark.parametrize("target", [
        # two outputs and two unstable modes: no closed form; with C = I its
        # q^c is the bound 1 - 1/1.2^2, so the bisection is short
        LtiTarget(A=np.diag([1.2, 1.1]), C=np.eye(2), Q=np.eye(2), R=np.eye(2)),
    ], ids=["bisected"])
    def test_unstable_target_is_solved_cold_at_one(self, target, solved):
        assert target.critical_closed_form is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            node = _Node(target, 0.0, 0.0, 1e-3)
        assert node.solves == 1
        assert [(q, x0) for _, q, x0 in solved] == [(1.0, None)]
        assert node.stabilizable
        assert node.cost_one == cost_at(target, 1.0)

    def test_unobservable_mode_on_the_unit_circle_needs_no_solve(self, solved):
        # rho = 1, but C misses the mode at 1: its fact is 1.0, so no
        # schedule stabilizes it, and no solve is needed to say so
        target = LtiTarget(A=np.diag([1.0, 0.5]), C=[[0.0, 1.0]], Q=np.eye(2), R=[[1.0]])
        with pytest.warns(RuntimeWarning, match="no fixed point even at q = 1"):
            node = _Node(target, 0.0, 0.0, INNER_TOL)
        assert node.solves == 0 and solved == []
        assert not node.stabilizable and node.q_critical == 1.0

    def test_fallback_solves_q_one_cold_on_first_use(self, pair, solved, monkeypatch):
        # noisy (rho = 0.7) with loss: the solve at 0.6 runs out of
        # iterations after the one at 0.3 converged; the secant slope then
        # needs the cost at q = 1, solved from Q although a fixed point at
        # a smaller q is at hand
        target, loss = pair[0], 0.2
        recording = optimizer.solve_mare

        def out_of_budget_at_six(t, q, **kwargs):
            res = recording(t, q, **kwargs)
            if q != 0.6 * (1.0 - loss):
                return res
            return MareResult(MareStatus.MAX_ITERATIONS, res.X, 100_000, 1.0)

        monkeypatch.setattr(optimizer, "solve_mare", out_of_budget_at_six)
        node = _Node(target, loss, 0.0, INNER_TOL)
        assert node.point(0.3)[1] > 0.0
        q, u, du = node.point(0.6)
        assert [(q, x0 is None) for _, q, x0 in solved] == [
            (0.3 * (1.0 - loss), True), (0.6 * (1.0 - loss), False), (1.0 - loss, True)]
        assert node.cost_one == target.cost_of(solve_mare(target, 1.0 - loss).X)
        assert (q, u, du) == (0.6, 0.0, 1.0 / (node.cost_one * (1.0 - 0.6)))
        assert node.solves == 3


class TestSpectrumDecidesExistence:
    """Targets whose existence question the spectrum answers take no MARE
    iteration to answer it, in any layer."""

    UNDETECTABLE = LtiTarget(A=np.diag([1.0, 0.5]), C=[[0.0, 1.0]], Q=np.eye(2), R=[[1.0]])

    @pytest.fixture()
    def iterations(self, monkeypatch) -> list[int]:
        """The iteration count of every solve_mare call, from any module."""
        counts = []
        real_solve = mare.solve_mare

        def counting_solve(target, q, **kwargs):
            res = real_solve(target, q, **kwargs)
            counts.append(res.iterations)
            return res

        monkeypatch.setattr(mare, "solve_mare", counting_solve)
        monkeypatch.setattr(optimizer, "solve_mare", counting_solve)
        return counts

    def test_undetectable_target_is_infeasible_without_a_solve(self, pair, iterations):
        # the solve at q = 1 took 100 000 iterations to say so
        with pytest.warns(InfeasibilityWarning, match="target 1 diverges even under constant"):
            report = solve_distribution([pair[0], self.UNDETECTABLE])
        assert not report.feasible
        assert report.per_target[1].q_critical == 1.0
        assert iterations == []

    def test_undetectable_target_has_critical_probability_one(self, iterations):
        # it was 0.0, read from rho(A) <= 1 alone
        with pytest.warns(RuntimeWarning, match="no fixed point even at q = 1"):
            assert critical_probability(self.UNDETECTABLE) == 1.0
        assert iterations == []

    def test_marginal_scalar_at_zero_diverges_without_iterating(self, iterations):
        # it ran into its 100 000-iteration budget
        res = mare.solve_mare(scalar_target(1.0), 0.0)
        assert (res.status, res.iterations) == (MareStatus.DIVERGED, 0)
        assert iterations == [0]


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
        # inner_tol sets the floors q^c + inner_tol: at 0.4 drifty's floor
        # binds, and the tighter default can only lower the budget
        rough = solve_distribution(pair, inner_tol=0.4)
        fine = solve_distribution(pair)
        assert rough.q_star.q[1] == 0.4
        assert fine.q_star.q[1] < 0.4
        assert fine.gamma_star < rough.gamma_star

    def test_chain_critical_reaches_the_optimum_for_its_floors(self):
        """The benchmark's five delay chains at inner_tol 2e-3. The nested
        bisection left its worst cost at 32.6807; the optimum for these
        floors is 32.5540, and every cost there is the closed form's."""
        specs = [
            DelayChainSpec(a=1.0, Q=1.0, R=1.0, d=1),
            DelayChainSpec(a=1.0, Q=2.0, R=1.0, d=2),
            DelayChainSpec(a=1.0, Q=5.0, R=1.0, d=2),
            DelayChainSpec(a=1.3, Q=1.0, R=1.0, d=0),
            DelayChainSpec(a=1.1, Q=1.0, R=1.0, d=2),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            report = solve_distribution([expand_delay_chain(s) for s in specs], inner_tol=2e-3)
        costs = [pt.cost for pt in report.per_target]
        assert report.gamma_star == max(costs) <= 32.5540 * (1 + 1e-9)
        assert abs(report.q_star.q.sum() - 1.0) <= 1e-12
        for spec, pt in zip(specs, report.per_target):
            exact = closed_form_delay_chain(spec, pt.q)[-1, -1]
            assert abs(pt.cost - exact) <= 1e-9 * exact
            assert abs(pt.cost - report.gamma_star) <= 1e-10 * report.gamma_star

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

    def test_solves_start_from_smaller_fixed_points(self, pair, nodes, solved):
        report = solve_distribution(pair)
        # per target: the start and four steps, one solve each; both are
        # strictly stable, so neither is solved at q = 1
        assert report.inner_iterations == sum(o.solves for o in nodes) == len(solved) == 10
        assert report.outer_iterations == 4
        for o in nodes:
            seen = []
            for t, q, x0 in solved:
                if t is not o.target:
                    continue
                below = [p for p in seen if p < q]
                # from the fixed point at the nearest smaller q, else cold
                if below:
                    assert x0 is o.fixed_points[max(below)]
                else:
                    assert x0 is None
                seen.append(q)
        # noisy rises from 0.5 and starts warm four times; drifty falls from
        # 0.5, so each of its solves is at a new least q and starts from Q
        assert sum(x0 is not None for _, _, x0 in solved) == 4
        # the README's printed solution
        assert f"{report.gamma_star:.4f}" == "59.0724"
        assert [f"{q:.4f}" for q in report.q_star.q] == ["0.6740", "0.3260"]

    def test_costs_equalize(self, pair):
        """At the optimum every target sits on the budget."""
        report = solve_distribution(pair)
        costs = [pt.cost for pt in report.per_target]
        assert report.gamma_star == max(costs)
        assert max(costs) - min(costs) <= 1e-10 * report.gamma_star


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
        assert floored.q_star.q[1] == 0.45
        # forcing extra probability onto the second target can only hurt
        assert floored.gamma_star >= free.gamma_star

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
    def test_floors_without_slack_are_honored_exactly(self, no_slack_pair):
        # floors summing to 0.999996, 2e-6 apart from (0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", InfeasibilityWarning)
            report = solve_distribution(no_slack_pair)
        floor = no_slack_pair[0].critical_closed_form + INNER_TOL
        assert report.feasible
        assert report.outer_iterations == 0
        assert abs(report.q_star.q.sum() - 1.0) <= 1e-12
        for pt in report.per_target:
            assert pt.q >= floor
            assert pt.cost == report.gamma_star
        ring = solve_distributed(no_slack_pair, adjacency=ring_graph(2)).solution
        assert np.array_equal(ring.q_star.q, report.q_star.q)
        assert ring.gamma_star == report.gamma_star

    def test_a_cost_no_probability_lowers_ends_the_solve(self, pair):
        # C = 0: the blind target costs its Lyapunov value 100 / 0.75 at
        # every q, above noisy's cost even at q = 1, so no step lowers the
        # worst cost; halving the first step below 1e-12 ends the solve
        blind = LtiTarget(A=[[0.5]], C=[[0.0]], Q=[[100.0]], R=[[1.0]])
        report = solve_distribution([blind, pair[0]])
        assert report.feasible
        assert report.gamma_star == report.per_target[0].cost == pytest.approx(400.0 / 3.0)
        assert abs(report.q_star.q.sum() - 1.0) <= 1e-12
        assert report.outer_iterations <= 45

    def test_costs_no_probability_lowers_keep_the_start(self):
        # no target's cost responds to its probability, so no step is taken
        blind = [LtiTarget(A=[[a]], C=[[0.0]], Q=[[1.0]], R=[[1.0]]) for a in (0.5, 0.8)]
        report = solve_distribution(blind)
        assert report.outer_iterations == 0
        assert report.q_star.q.tolist() == [0.5, 0.5]
        assert report.gamma_star == pytest.approx(1.0 / (1.0 - 0.8**2))

    def test_a_failed_solve_pushes_its_target_up(self, pair, monkeypatch):
        # drifty's solve at the start (q = 0.5) runs out of iterations; its
        # u is then 0 with the secant slope to q = 1, and the steps after
        # it reach the same optimum
        real_solve, failed_at = optimizer.solve_mare, []

        def failing_solve(target, q, **kwargs):
            res = real_solve(target, q, **kwargs)
            if target is pair[1] and q == 0.5:
                failed_at.append(q)
                return MareResult(MareStatus.MAX_ITERATIONS, res.X, 100_000, 1.0)
            return res

        free = solve_distribution(pair)
        monkeypatch.setattr(optimizer, "solve_mare", failing_solve)
        failed = solve_distribution(pair)
        assert failed_at == [0.5]
        assert failed.gamma_star == pytest.approx(free.gamma_star, rel=1e-10)
        assert failed.q_star.q == pytest.approx(free.q_star.q, abs=1e-10)

    def test_a_priority_clamps_to_its_floor_exactly(self, pair):
        # drifty's priority leaves noisy 0.01 of slack above its own floor
        floors = Constraints(priorities=[0.0, 0.99])
        report = solve_distribution(pair, constraints=floors)
        assert report.q_star.q[1] == 0.99
        assert abs(report.q_star.q.sum() - 1.0) <= 1e-12
        assert report.gamma_star == report.per_target[0].cost > report.per_target[1].cost

    def test_feasible_solve_emits_no_warning(self, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_distribution(pair)
        assert report.feasible
