"""Peer-to-peer version of the probability solver.

Each node owns one target model and talks only to its graph neighbors,
yet the network must agree on one distribution. The only global quantity
the bisection needs is the total demand at a trial budget: n times the
network average of the per-node demands, which linear consensus computes.
So the network runs the centralized solver's own nested bisection
(`optimizer._nested_bisection`) in lockstep on an agreed starting
bracket, and consensus decides each outer step's verdict sum <= 1.

Consensus uses Metropolis weights, which average correctly on any
connected undirected graph. Averaging stops once the spread certifies
every node's estimate on one side of 1, not once the estimates converge,
so all nodes take the exact branch. Setup, the read-out and any step
that averaging leaves undecided after `_MAX_CONSENSUS_ROUNDS` rounds
flood the demands instead, which is exact after diameter-many exchanges;
the flooded total is the centralized solver's own sum, so the
distribution comes out bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LtiTarget
from .optimizer import Constraints, SolveReport, _nested_bisection

__all__ = [
    "DistributedReport",
    "complete_graph",
    "ring_graph",
    "line_graph",
    "metropolis_weights",
    "graph_diameter",
    "solve_distributed",
]

_MAX_CONSENSUS_ROUNDS = 100_000


def complete_graph(n: int) -> np.ndarray:
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


def ring_graph(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    np.fill_diagonal(adj, False)
    return adj


def line_graph(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def _check_adjacency(adj: np.ndarray) -> tuple[np.ndarray, int]:
    """The adjacency as a boolean matrix, validated, and its diameter."""
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if np.any(adj != adj.T):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    if np.any(np.diag(adj)):
        raise ValueError("adjacency must have no self loops")
    return adj, graph_diameter(adj)


def graph_diameter(adj: np.ndarray) -> int:
    """Most hops between two nodes: the rounds until every node reaches all."""
    adj = np.asarray(adj, dtype=bool)
    reach = np.eye(adj.shape[0], dtype=bool)
    hops = 0
    while not reach.all():
        grown = reach | reach @ adj
        if np.array_equal(grown, reach):
            raise ValueError("graph must be connected")
        reach, hops = grown, hops + 1
    return hops


def metropolis_weights(adj: np.ndarray) -> np.ndarray:
    """Symmetric doubly stochastic weights for average consensus.

    Edge (i, j) gets 1 / (1 + max(deg_i, deg_j)) and the diagonal absorbs
    the remainder, so the all-ones vector is preserved in both directions
    and repeated application converges to the mean on any connected graph.
    """
    return _metropolis(_check_adjacency(adj)[0])


def _metropolis(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1)
    W = np.zeros(adj.shape, dtype=float)
    ii, jj = np.nonzero(adj)
    W[ii, jj] = 1.0 / (1.0 + np.maximum(deg[ii], deg[jj]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


@dataclass(frozen=True, eq=False)
class DistributedReport:
    """Distributed solution plus protocol accounting.

    `solution` has the same shape a centralized solve returns.
    consensus_rounds lists the message rounds each outer step spent
    agreeing on the demand (flooding rounds for setup and read-out are in
    total_rounds).
    """

    solution: SolveReport
    consensus_rounds: tuple[int, ...]
    total_rounds: int


def _consensus_demand(local: np.ndarray, W: np.ndarray):
    """Per-node estimates of the total demand, by averaging.

    Iterates x <- W x until no node's implied total (n times its average)
    lies within ten spreads of the feasibility threshold 1. The mean stays
    within the spread of every node's value, so each node's verdict
    `estimate <= 1` is then the exact one; the estimates themselves need
    not have converged. Returns (estimates, rounds, decided); decided is
    False when `_MAX_CONSENSUS_ROUNDS` rounds pass first.
    """
    n = local.shape[0]
    x = local.astype(float).copy()
    rounds = 0
    while True:
        margin = 10.0 * n * float(x.max() - x.min())
        if not np.any(np.abs(n * x - 1.0) <= margin):
            return n * x, rounds, True
        if rounds >= _MAX_CONSENSUS_ROUNDS:
            return n * x, rounds, False
        x = W @ x
        rounds += 1


class _ConsensusTotal:
    """How a network of nodes totals the demand vector, one entry per node.

    Exact totals (bracket growth, read-out) flood the demands, which takes
    diameter-many rounds. An outer step averages them by consensus and
    every node decides sum(qs) <= 1 on its own estimate; when averaging
    cannot separate the total from 1, the demands are flooded instead.
    Records the rounds each outer step spent.
    """

    def __init__(self, W: np.ndarray, diameter: int):
        self.W, self.diameter = W, diameter
        self.step_rounds: list[int] = []
        # Feasibility and the starting bracket need one exchange of scalars
        # (floor, cost at q=1, cost at the padded floor): two floods.
        self.total_rounds = 2 * diameter

    def total(self, qs: list[float]) -> float:
        self.total_rounds += self.diameter
        return sum(qs)

    def within_budget(self, qs: list[float], gamma: float, lo: float, hi: float) -> bool:
        mu_est, rounds, decided = _consensus_demand(np.array(qs), self.W)
        if not decided:
            # The total demand sits essentially on the threshold and
            # averaging cannot separate it; flood the demands so the
            # branch is exact and unanimous.
            mu_est = np.full(len(qs), sum(qs))
            rounds += self.diameter
        verdicts = mu_est <= 1.0
        if np.any(verdicts != verdicts[0]):
            raise RuntimeError("nodes fell out of lockstep; consensus margin too small")
        ok = bool(verdicts[0])
        self.total_rounds += rounds
        self.step_rounds.append(rounds)
        return ok


def solve_distributed(
    targets: list[LtiTarget],
    adjacency: np.ndarray | None = None,
    constraints: Constraints | None = None,
    outer_tol: float = 1e-3,
    inner_tol: float = 1e-5,
) -> DistributedReport:
    """Solve the shared-budget problem with one node per target.

    Runs the centralized solver's own bisection with the demand totals
    formed by the network, so the solution equals `solve_distribution`'s
    on the same tolerances bit for bit: each step averages only until
    every node's verdict is certified, floods the demands when averaging
    cannot certify it, and raises RuntimeError should nodes still
    disagree.
    Defaults to a complete graph; any connected undirected adjacency
    works. Node i knows only targets[i], its constraint entries, and the
    shared tolerances; the starting bracket is agreed during setup.
    """
    if not targets:
        raise ValueError("need at least one target")
    n = len(targets)
    adj, diameter = _check_adjacency(complete_graph(n) if adjacency is None else adjacency)
    if adj.shape[0] != n:
        raise ValueError(f"adjacency is {adj.shape[0]} nodes, expected {n}")
    network = _ConsensusTotal(_metropolis(adj), diameter)
    solution = _nested_bisection(targets, constraints, outer_tol, inner_tol, network)
    return DistributedReport(
        solution=solution,
        consensus_rounds=tuple(network.step_rounds),
        total_rounds=network.total_rounds,
    )
