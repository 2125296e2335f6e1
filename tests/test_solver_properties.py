"""The distributed solver equals the centralized one exactly.

Both solvers run the same nested bisection and total the demand vector
with the same sequential sum; consensus only decides the outer steps. So
on any connected graph the distributed `gamma_star` and `q_star` must be
bit-identical to the centralized ones, not merely close. Instances have
8-12 targets because numpy's pairwise summation departs from sequential
summation from 8 terms on, which is where a second way of totalling would
show. When the nodes' verdicts disagree the solve raises instead.

The centralized solve also treats targets symmetrically: permuting them
permutes q* and leaves gamma* alone, to within the solver's tolerances
(only the order of the demand sum changes), and two copies of one target
get the same q bit for bit. Scaling (Q, R) by c scales every fixed point
by c, so together with outer_tol it scales gamma* by c and leaves q*.
A target returned at its floor meets gamma* there.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sensorsched.distributed as distributed
from sensorsched import (
    LtiTarget,
    complete_graph,
    graph_diameter,
    line_graph,
    ring_graph,
    solve_distributed,
    solve_distribution,
    solve_mare,
)
from sensorsched.optimizer import _ExactTotal, _nested_bisection


def stable_targets(rng, n: int) -> list[LtiTarget]:
    """n random 2x2 targets with spectral radius in [0.3, 0.9]."""
    targets = []
    for _ in range(n):
        A = rng.normal(size=(2, 2))
        A *= rng.uniform(0.3, 0.9) / np.max(np.abs(np.linalg.eigvals(A)))
        G = rng.normal(size=(2, 2))
        targets.append(
            LtiTarget(
                A=A,
                C=rng.normal(size=(1, 2)),
                Q=G @ G.T + 0.1 * np.eye(2),
                R=[[rng.uniform(0.5, 2.0)]],
            )
        )
    return targets


def random_connected_graph(rng, n: int) -> np.ndarray:
    """A random spanning tree plus a few random extra edges."""
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for k in range(1, n):
        u, v = order[k], order[rng.integers(k)]
        adj[u, v] = adj[v, u] = True
    for _ in range(n // 2):
        u, v = rng.choice(n, size=2, replace=False)
        adj[u, v] = adj[v, u] = True
    return adj


GRAPHS = {
    "ring": lambda rng, n: ring_graph(n),
    "line": lambda rng, n: line_graph(n),
    "complete": lambda rng, n: complete_graph(n),
    "random": random_connected_graph,
}


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 12),
    graph=st.sampled_from(sorted(GRAPHS)),
)
def test_distributed_is_bit_identical_to_centralized(seed, n, graph):
    rng = np.random.default_rng(seed)
    targets = stable_targets(rng, n)
    central = solve_distribution(targets)
    dist = solve_distributed(targets, adjacency=GRAPHS[graph](rng, n)).solution
    assert central.feasible and dist.feasible
    assert dist.gamma_star == central.gamma_star
    assert np.array_equal(dist.q_star.q, central.q_star.q)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_permuting_targets_permutes_the_solution(seed, n):
    rng = np.random.default_rng(seed)
    targets = stable_targets(rng, n)
    perm = rng.permutation(n)
    outer_tol, inner_tol = 1e-3, 1e-5
    base = solve_distribution(targets, outer_tol=outer_tol, inner_tol=inner_tol)
    permuted = solve_distribution(
        [targets[i] for i in perm], outer_tol=outer_tol, inner_tol=inner_tol
    )
    assert abs(permuted.gamma_star - base.gamma_star) <= outer_tol
    assert np.abs(permuted.q_star.q - base.q_star.q[perm]).max() <= inner_tol


def test_split_verdict_raises(pair, monkeypatch):
    # a filter whose estimates settle with one node on each side of the threshold
    monkeypatch.setattr(
        distributed, "_consensus_demand", lambda *args: (np.array([0.5, 1.5]), 1, True)
    )
    with pytest.raises(RuntimeError, match="lockstep"):
        solve_distributed(pair)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 20),
    graph=st.sampled_from(sorted(GRAPHS)),
    log_delta=st.floats(-9.0, 0.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_a_decided_verdict_is_the_exact_verdict(seed, n, graph, log_delta, sign):
    """The filter's K rounds leave every node's estimate outside its
    margin, so each verdict is certified; it must be the exact one, even
    for totals within 1e-9 of the threshold."""
    rng = np.random.default_rng(seed)
    local = rng.uniform(0.0, 1.0, size=n)
    total = 1.0 + sign * 10.0**log_delta
    local = np.clip(local * (total / local.sum()), 0.0, 1.0)
    W = distributed.metropolis_weights(GRAPHS[graph](rng, n))
    est, _, decided = distributed._consensus_demand(local, W)
    assert decided
    assert np.all((est <= 1.0) == (math.fsum(local) <= 1.0))


class FloodLog(distributed._ConsensusTotal):
    """The network's demand strategy, keeping every total it flooded."""

    def __init__(self, W, diameter):
        super().__init__(W, diameter)
        self.flooded = []

    def total(self, qs):
        self.flooded.append(super().total(qs))
        return self.flooded[-1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    graph=st.sampled_from(["line", "random", "ring"]),
    log_delta=st.floats(-17.0, -1.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
# the graphs where plain filter ordering drifted most, and a total that
# rounds to 1, which the filter cannot decide
@example(seed=1, n=60, graph="line", log_delta=-9.0, sign=1.0)
@example(seed=1, n=100, graph="ring", log_delta=-9.0, sign=-1.0)
@example(seed=1, n=20, graph="ring", log_delta=-17.0, sign=1.0)
def test_filter_drift_is_certified(seed, n, graph, log_delta, sign):
    """Rounding moves the filter's mean by no more than its certified
    drift, so n x_i lies within n (drift + spread) of the exact total and
    a decided verdict is the exact one. An undecided step floods: its
    verdict is that of the sequential sum, after K + diameter rounds."""
    rng = np.random.default_rng(seed)
    local = rng.uniform(0.0, 1.0, size=n)
    local = np.clip(local * ((1.0 + sign * 10.0**log_delta) / local.sum()), 0.0, 1.0)
    adj = GRAPHS[graph](rng, n)
    W = distributed.metropolis_weights(adj)
    spectrum = distributed._leja_spectrum(W)
    x, drift = distributed._graph_filter(local, W, spectrum)
    exact = math.fsum(local)
    assert np.all(np.abs(n * x - exact) <= n * (drift + (x.max() - x.min())))

    diameter = graph_diameter(adj)
    network = FloodLog(W, diameter)
    verdict = network.within_budget(list(local))
    est, rounds, decided = distributed._consensus_demand(local, W, spectrum)
    assert rounds == len(spectrum)
    if decided:
        assert np.all((est <= 1.0) == (exact <= 1.0))
        assert verdict == (exact <= 1.0)
        assert network.flooded == []
        assert network.step_rounds == [rounds]
    else:
        assert network.flooded == [sum(local)]
        assert verdict == (sum(local) <= 1.0)
        assert network.step_rounds == [rounds + diameter]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_duplicated_target_gets_the_same_probability(seed, n):
    rng = np.random.default_rng(seed)
    targets = stable_targets(rng, n)
    j, at = int(rng.integers(n)), int(rng.integers(n + 1))
    t = targets[j]
    copy = LtiTarget(A=t.A, C=t.C, Q=t.Q, R=t.R)
    targets.insert(at, copy)
    q = solve_distribution(targets).q_star.q
    assert q[at] == q[j + (at <= j)]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), k=st.integers(-2, 2))
def test_scaling_the_noise_scales_the_budget(seed, n, k):
    rng = np.random.default_rng(seed)
    targets = stable_targets(rng, n)
    c, outer_tol, inner_tol = 2.0**k, 1e-3, 1e-5
    scaled = [LtiTarget(A=t.A, C=t.C, Q=c * t.Q, R=c * t.R) for t in targets]
    base = solve_distribution(targets, outer_tol=outer_tol, inner_tol=inner_tol)
    moved = solve_distribution(scaled, outer_tol=c * outer_tol, inner_tol=inner_tol)
    assert abs(moved.gamma_star - c * base.gamma_star) <= c * outer_tol
    assert np.abs(moved.q_star.q - base.q_star.q).max() <= inner_tol


class ReadOut(_ExactTotal):
    """The centralized demand strategy, keeping the last demand vector it
    totalled: the read-out's, at gamma*."""

    def total(self, qs):
        self.qs = list(qs)
        return super().total(qs)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6))
def test_floor_targets_meet_the_budget(seed, n):
    """A strictly stable target whose floor meets the budget is returned
    at the floor itself. Its cost there, solved again from Q, is
    certified and within gamma*, and the ring solve agrees bit for bit."""
    rng = np.random.default_rng(seed)
    targets = stable_targets(rng, n)
    # quiet targets (little process noise) end at their floor
    quiet = int(rng.integers(1, n))
    targets[:quiet] = [LtiTarget(A=t.A, C=t.C, Q=1e-3 * t.Q, R=t.R) for t in targets[:quiet]]
    inner_tol = 1e-5
    demand = ReadOut()
    central = _nested_bisection(targets, None, 1e-3, inner_tol, demand)
    at_floor = [t for t, q in zip(targets, demand.qs) if q == inner_tol]
    assert at_floor
    for t in at_floor:
        res = solve_mare(t, inner_tol)
        assert res.converged
        assert t.cost_of(res.X) <= central.gamma_star
    ring = solve_distributed(targets, adjacency=ring_graph(n)).solution
    assert ring.gamma_star == central.gamma_star
    assert np.array_equal(ring.q_star.q, central.q_star.q)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_undecided_steps_flood(seed, monkeypatch):
    """A step that the filter leaves undecided floods the demands: it
    costs the filter's K rounds plus one diameter and returns the
    centralized verdict."""
    graph_filter = distributed._graph_filter
    # an unbounded drift leaves every node inside its margin
    monkeypatch.setattr(distributed, "_graph_filter",
                        lambda *args: (graph_filter(*args)[0], np.inf))
    targets = stable_targets(np.random.default_rng(seed), 6)
    adj = ring_graph(6)
    central = solve_distribution(targets)
    dist = solve_distributed(targets, adjacency=adj)
    diameter = graph_diameter(adj)
    # the 6-ring's W has eigenvalues 1, 2/3, 0 (each twice) and -1/3
    assert len(dist.consensus_rounds) == central.outer_iterations > 0
    assert set(dist.consensus_rounds) == {3 + diameter}
    assert dist.solution.gamma_star == central.gamma_star
    assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
