"""Peer-to-peer version of the probability solver.

Each node owns one target model and talks only to its graph neighbors,
yet the network must agree on one distribution. The only global quantity
the bisection needs is the total demand at a trial budget. So the network
runs the centralized solver's own nested bisection
(`optimizer._nested_bisection`) at every node on an agreed starting bracket,
and floods the demands wherever the bisection totals them: every node
sends each (node, demand) pair it has not yet sent to its neighbors, so
after diameter-many rounds every node holds all n demands and knows it
does. Each node then forms the centralized solver's own sequential sum in
node order, so every verdict is the exact one, all nodes take the same
branch, and the distribution comes out bit-identical.

No exact total takes fewer rounds on a graph of diameter D, since the
two nodes D hops apart must hear from each other. Averaging does not
either: in the Metropolis matrix W, entry (i, j) of W^k is zero for
k < dist(i, j) and positive at k = dist(i, j), so I, W, ..., W^D are
linearly independent and W has at least D + 1 distinct eigenvalues. A
finite-time averaging filter (Sandryhaila, Kar & Moura, ICASSP 2014),
one round per distinct non-unit eigenvalue, thus needs at least D rounds,
and it is exact only up to rounding.
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
    "graph_diameter",
    "solve_distributed",
]


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


@dataclass(frozen=True, eq=False)
class DistributedReport:
    """Distributed solution plus protocol accounting.

    `solution` has the same shape a centralized solve returns.
    consensus_rounds lists the message rounds each outer step spent
    agreeing on the demand: one flood, diameter rounds. total_rounds adds
    the other floods: two at setup (the floors, then the costs that fix
    the starting bracket), one per bracket check and one for the read-out.
    """

    solution: SolveReport
    consensus_rounds: tuple[int, ...]
    total_rounds: int


def solve_distributed(
    targets: list[LtiTarget],
    adjacency: np.ndarray | None = None,
    constraints: Constraints | None = None,
    outer_tol: float = 1e-3,
    inner_tol: float = 1e-5,
) -> DistributedReport:
    """Solve the shared-budget problem with one node per target.

    Runs the centralized solver's own bisection with every demand total
    flooded through the network, so the solution equals
    `solve_distribution`'s on the same tolerances bit for bit. Defaults to
    a complete graph; any connected undirected adjacency works. Node i
    knows only targets[i], its constraint entries, the shared tolerances
    and n; the starting bracket is agreed during setup.
    """
    if not targets:
        raise ValueError("need at least one target")
    n = len(targets)
    adj, diameter = _check_adjacency(complete_graph(n) if adjacency is None else adjacency)
    if adj.shape[0] != n:
        raise ValueError(f"adjacency is {adj.shape[0]} nodes, expected {n}")
    floods = 2  # setup

    def flood(qs: list[float]) -> float:
        nonlocal floods
        floods += 1
        return sum(qs)

    solution = _nested_bisection(targets, constraints, outer_tol, inner_tol, flood)
    return DistributedReport(
        solution=solution,
        consensus_rounds=(diameter,) * solution.outer_iterations,
        total_rounds=floods * diameter,
    )
