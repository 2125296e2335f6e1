"""Peer-to-peer version of the probability solver.

Each node owns one target model and talks only to its graph neighbors,
yet the network must agree on one distribution. The solver's global
quantities are sums and extrema over the targets. So the network runs the
centralized solver's own Newton loop (`optimizer._newton`) at every
node, and floods what that loop shares: every node sends each
(node, values) pair it has not yet sent to its neighbors, so after
diameter-many rounds every node holds all n entries and knows it does.
Each node floods three values once at setup: its floor, its critical
probability unless it is strictly stable, and whether constant
observation stabilizes its target, which takes a solve at q = 1 only
when rho(A) > 1 or a mode on the unit circle is unobservable. It floods
its (q_i, u_i, u_i') once per evaluated point, and its cost at q* once
for the read-out. Every node then runs the same clamp-and-release update
with the same sequential sums in node order, so all nodes take the same
steps and the distribution comes out bit-identical to the centralized
one.

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
from .optimizer import Constraints, SolveReport, _newton

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
    consensus_rounds lists the message rounds each Newton step spent
    sharing its evaluated point: one flood, diameter rounds. total_rounds
    adds the other floods: one at setup (floors, q^c, stabilizability),
    one for the starting point and one for the read-out, so it is
    (3 + steps) * diameter on a feasible solve.
    """

    solution: SolveReport
    consensus_rounds: tuple[int, ...]
    total_rounds: int


def solve_distributed(
    targets: list[LtiTarget],
    adjacency: np.ndarray | None = None,
    constraints: Constraints | None = None,
    inner_tol: float = 1e-5,
) -> DistributedReport:
    """Solve the shared-budget problem with one node per target.

    Runs the centralized solver's own Newton loop with every shared
    value flooded through the network, so the solution equals
    `solve_distribution`'s on the same inner_tol bit for bit. Defaults to
    a complete graph; any connected undirected adjacency works. Node i
    knows only targets[i], its constraint entries, inner_tol and n; the
    floors are shared during setup.
    """
    n = len(targets)
    adj, diameter = _check_adjacency(complete_graph(n) if adjacency is None else adjacency)
    if adj.shape[0] != n:
        raise ValueError(f"adjacency is {adj.shape[0]} nodes, expected {n}")
    floods = 0

    def flood(values: list) -> list:
        nonlocal floods
        floods += 1
        return values

    solution = _newton(targets, constraints, inner_tol, flood)
    return DistributedReport(
        solution=solution,
        consensus_rounds=(diameter,) * solution.outer_iterations,
        total_rounds=floods * diameter,
    )
