"""Peer-to-peer version of the probability solver.

Each node owns one target model and talks only to its graph neighbors,
yet the network must agree on one distribution. The only global quantity
the bisection needs is the total demand at a trial budget: n times the
network average of the per-node demands. So the network runs the
centralized solver's own nested bisection (`optimizer._nested_bisection`)
in lockstep on an agreed starting bracket, and consensus decides each
outer step's verdict sum <= 1.

Consensus uses Metropolis weights W, which average correctly on any
connected undirected graph, through a finite-time graph filter
(Sandryhaila, Kar & Moura, ICASSP 2014): one round per distinct non-unit
eigenvalue of W, K rounds in all, after which every node holds the
average up to rounding. Each round keeps the mean, so only rounding moves
it, and a bound on that drift widens the margin that certifies every
node's estimate on one side of 1; all nodes then take the exact branch.
Setup, the read-out and any step the filter leaves undecided flood the
demands instead, which is exact after diameter-many exchanges; the
flooded total is the centralized solver's own sum, so the distribution
comes out bit-identical.
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

_U = np.finfo(float).eps / 2  # unit roundoff
# Eigenvalues of W closer than this are one filter round. A repeated
# eigenvalue comes out of eigvalsh split by rounding only; merging two
# that truly differ leaves a residue the margin test sees, and the step
# floods.
_SAME_EIGENVALUE = 1e-9


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
    agreeing on the demand: K, the number of distinct non-unit eigenvalues
    of W, or K + diameter when the step floods. total_rounds adds the
    floods: three at setup, one per bracket check and one for the read-out.
    """

    solution: SolveReport
    consensus_rounds: tuple[int, ...]
    total_rounds: int


def _leja_spectrum(W: np.ndarray) -> np.ndarray:
    """The distinct non-unit eigenvalues of W, one per filter round.

    In Leja order: the largest in modulus first, then each one farthest,
    in product of distances, from those already taken. That keeps the
    partial products of the filter small, and with them its rounding.
    """
    lams = np.linalg.eigvalsh(W)[:-1]  # the largest is the unit eigenvalue
    if not lams.size:
        return lams
    lams = lams[np.r_[True, np.diff(lams) > _SAME_EIGENVALUE]]
    order = [int(np.argmax(np.abs(lams)))]
    with np.errstate(divide="ignore"):
        log_dist = np.log(np.abs(lams - lams[order[0]]))
        while len(order) < lams.size:
            order.append(int(np.argmax(log_dist)))
            log_dist += np.log(np.abs(lams - lams[order[-1]]))
    return lams[order]


def _graph_filter(local: np.ndarray, W: np.ndarray, spectrum: np.ndarray):
    """The filter's K rounds x <- (W x - lam x) / (1 - lam), one per entry
    of `spectrum`, and a bound on how far they moved the mean.

    In exact arithmetic each round keeps the mean of x and removes one
    eigencomponent, so x ends at the mean. Returns (x, drift): drift
    bounds |mean(x) - total / n| for the exact total of `local` and for
    its sequential sum, which the centralized solver decides on. It
    starts at that sum's rounding, (n - 1) u sum|local| / n, and each
    round adds (2 deg + 6) u max_i(W|x| + |lam||x|)_i / (1 - lam): deg + 3
    roundings in the numerator (a dot over deg + 1 weights, the product
    lam x and the difference), two in the division by the rounded
    1 - lam, deg in the weights' column sums (the diagonal is 1 minus a
    rounded row sum) and one for second-order terms.
    """
    x = np.asarray(local, dtype=float)
    n = x.shape[0]
    deg = np.count_nonzero(W, axis=1).max() - 1
    drift = (n - 1) * _U * float(np.abs(x).sum()) / n
    for lam in spectrum:
        ax = np.abs(x)
        Wx, W_ax = (W @ np.stack([x, ax], axis=1)).T
        drift += (2 * deg + 6) * _U * float(np.max(W_ax + abs(lam) * ax)) / (1.0 - lam)
        x = (Wx - lam * x) / (1.0 - lam)
    return x, drift


def _consensus_demand(local: np.ndarray, W: np.ndarray, spectrum: np.ndarray | None = None):
    """Per-node estimates of the total demand, by the finite-time filter.

    After the K rounds of `_graph_filter` (K = len(spectrum), the
    spectrum taken from W when not given) node i's implied total n x_i
    lies within n spread + n drift of the exact total. A verdict
    `estimate <= 1` is certified once no node lies within
    10 n spread + n drift of the threshold 1. Returns (estimates, K,
    decided).
    """
    if spectrum is None:
        spectrum = _leja_spectrum(W)
    n = local.shape[0]
    x, drift = _graph_filter(local, W, spectrum)
    margin = 10.0 * n * float(x.max() - x.min()) + n * drift
    return n * x, len(spectrum), not np.any(np.abs(n * x - 1.0) <= margin)


class _ConsensusTotal:
    """How a network of nodes totals the demand vector, one entry per node.

    Exact totals (bracket growth, read-out) flood the demands, which takes
    diameter-many rounds. An outer step runs the K-round graph filter and
    every node decides sum(qs) <= 1 on its own estimate; when the filter
    cannot separate the total from 1, the demands are flooded as well.
    Records the rounds each outer step spent.
    """

    def __init__(self, W: np.ndarray, diameter: int):
        self.W, self.diameter = W, diameter
        self.spectrum = _leja_spectrum(W)
        self.step_rounds: list[int] = []
        # Feasibility and the starting bracket need one exchange of scalars
        # (floor, cost at q=1, cost at the padded floor): two floods. A
        # third floods the topology, from which every node computes W and
        # its spectrum.
        self.total_rounds = 3 * diameter

    def total(self, qs: list[float]) -> float:
        self.total_rounds += self.diameter
        return sum(qs)

    def within_budget(self, qs: list[float]) -> bool:
        mu_est, rounds, decided = _consensus_demand(np.array(qs), self.W, self.spectrum)
        self.total_rounds += rounds
        if not decided:
            # The total demand sits essentially on the threshold and the
            # filter cannot separate it; flood the demands so the branch
            # is exact and unanimous.
            mu_est = np.full(len(qs), self.total(qs))
            rounds += self.diameter
        verdicts = mu_est <= 1.0
        if np.any(verdicts != verdicts[0]):
            raise RuntimeError("nodes fell out of lockstep; consensus margin too small")
        self.step_rounds.append(rounds)
        return bool(verdicts[0])


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
    on the same tolerances bit for bit: each step runs the K-round graph
    filter, floods the demands when the filter cannot certify every
    node's verdict, and raises RuntimeError should nodes still disagree.
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
