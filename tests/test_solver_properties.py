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
"""
import numpy as np
import pytest
from hypothesis import given, settings
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
)


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
    # consensus that settles with one node on each side of the threshold
    monkeypatch.setattr(
        distributed, "_consensus_demand", lambda *args: (np.array([0.5, 1.5]), 1, True)
    )
    with pytest.raises(RuntimeError, match="lockstep"):
        solve_distributed(pair)


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_undecided_steps_flood(seed, monkeypatch):
    """A step that averaging leaves undecided floods the demands: it costs
    one diameter of rounds and returns the centralized verdict."""
    monkeypatch.setattr(distributed, "_MAX_CONSENSUS_ROUNDS", 0)
    targets = stable_targets(np.random.default_rng(seed), 6)
    adj = ring_graph(6)
    central = solve_distribution(targets)
    dist = solve_distributed(targets, adjacency=adj)
    diameter = graph_diameter(adj)
    assert len(dist.consensus_rounds) == central.outer_iterations > 0
    assert set(dist.consensus_rounds) == {diameter}
    assert dist.solution.gamma_star == central.gamma_star
    assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
