"""Graphs and the peer-to-peer solver.

The load-bearing check is exact agreement with the centralized solver:
the network floods every node's (q, u, u') once per Newton step, so every
node forms the centralized solver's own sums and takes the same step, and
the distributed run must reproduce the centralized result bit for bit.
"""
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_connected_graph
from sensorsched import (
    InfeasibilityWarning,
    complete_graph,
    distributed,
    graph_diameter,
    line_graph,
    ring_graph,
    solve_distributed,
    solve_distribution,
)
from sensorsched.model import LtiTarget

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class TestGraphs:
    def test_complete(self):
        adj = complete_graph(4)
        assert adj.shape == (4, 4)
        assert not adj.diagonal().any()
        assert adj.sum() == 12
        assert graph_diameter(adj) == 1

    def test_ring(self):
        adj = ring_graph(5)
        assert (adj.sum(axis=1) == 2).all()
        assert graph_diameter(adj) == 2
        assert graph_diameter(ring_graph(6)) == 3

    def test_line(self):
        adj = line_graph(4)
        assert adj[0, 1] and adj[1, 2] and adj[2, 3]
        assert adj.sum() == 6
        assert graph_diameter(adj) == 3

    def test_single_node(self):
        assert graph_diameter(complete_graph(1)) == 0

    @pytest.mark.parametrize(
        "adj, message",
        [
            (np.ones((2, 3), dtype=bool), "square"),
            (np.array([[False, True], [False, False]]), "symmetric"),
            (np.array([[True, True], [True, False]]), "self loops"),
            (np.zeros((3, 3), dtype=bool), "connected"),
        ],
    )
    def test_bad_adjacency(self, pair, adj, message):
        with pytest.raises(ValueError, match=message):
            solve_distributed(pair, adjacency=adj)


def random_graph(n: int) -> np.ndarray:
    """A random connected graph on n nodes, the same for each n."""
    return random_connected_graph(np.random.default_rng(n), n)


class TestSolveDistributed:
    def test_matches_centralized_on_pair(self, pair):
        central = solve_distribution(pair)
        dist = solve_distributed(pair)
        assert dist.solution.gamma_star == central.gamma_star
        assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
        for a, b in zip(dist.solution.per_target, central.per_target):
            assert a.q == b.q and a.cost == b.cost

    @pytest.mark.parametrize("topology", [complete_graph, ring_graph, line_graph, random_graph])
    def test_matches_centralized_on_trio(self, chain_trio, topology):
        central = solve_distribution(chain_trio)
        dist = solve_distributed(chain_trio, adjacency=topology(3))
        assert dist.solution.gamma_star == central.gamma_star
        assert np.array_equal(dist.solution.q_star.q, central.q_star.q)

    def test_single_node(self, pair):
        dist = solve_distributed([pair[0]])
        assert dist.solution.q_star.q[0] == pytest.approx(1.0)
        assert dist.solution.feasible

    def test_every_outer_step_records_its_consensus_rounds(self, chain_trio):
        dist = solve_distributed(chain_trio, adjacency=line_graph(3))
        steps = dist.solution.outer_iterations
        assert len(dist.consensus_rounds) == steps
        assert all(r >= 1 for r in dist.consensus_rounds)
        assert dist.total_rounds > sum(dist.consensus_rounds)

    @pytest.mark.parametrize("topology", [complete_graph, ring_graph, line_graph])
    def test_rounds_are_three_floods_plus_one_per_step(self, chain_trio, topology):
        adj = topology(3)
        dist = solve_distributed(chain_trio, adjacency=adj)
        steps, diameter = dist.solution.outer_iterations, graph_diameter(adj)
        assert dist.consensus_rounds == (diameter,) * steps
        assert dist.total_rounds == (3 + steps) * diameter

    def test_line_needs_more_rounds_than_complete(self, chain_trio):
        on_line = solve_distributed(chain_trio, adjacency=line_graph(3))
        on_complete = solve_distributed(chain_trio, adjacency=complete_graph(3))
        assert on_line.total_rounds > on_complete.total_rounds

    def test_infeasible_report_is_empty(self, unstable_scalar):
        with pytest.warns(InfeasibilityWarning):
            dist = solve_distributed([unstable_scalar, unstable_scalar])
        assert not dist.solution.feasible
        assert dist.solution.q_star is None
        assert dist.consensus_rounds == ()

    @pytest.mark.filterwarnings("ignore::sensorsched.ConditioningWarning")
    def test_floors_without_slack_match_centralized(self, no_slack_pair):
        # floors summing to 0.999996 are honored exactly, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", InfeasibilityWarning)
            central = solve_distribution(no_slack_pair)
            dist = solve_distributed(no_slack_pair, adjacency=line_graph(2))
        floor = no_slack_pair[0].critical_closed_form + 1e-5
        assert dist.solution.feasible
        assert all(q >= floor for q in central.q_star.q)
        assert abs(central.q_star.q.sum() - 1.0) <= 1e-12
        assert dist.solution.gamma_star == central.gamma_star
        assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
        # the start, the floors plus an even share of the slack, is optimal
        # for two copies of one target: no step, so only the three floods
        assert dist.consensus_rounds == ()
        assert dist.total_rounds == 3

    def test_rejects_wrong_adjacency_size(self, pair):
        with pytest.raises(ValueError, match="expected 2"):
            solve_distributed(pair, adjacency=complete_graph(3))

    def test_graph_checked_once_per_solve(self, pair, monkeypatch):
        """One validation and one hop computation (the diameter, which also
        proves the graph connected) serve the whole solve."""
        calls = []

        def counted(name):
            original = getattr(distributed, name)

            def wrapper(adj):
                calls.append(name)
                return original(adj)

            monkeypatch.setattr(distributed, name, wrapper)

        counted("_check_adjacency")
        counted("graph_diameter")
        solve_distributed(pair + pair[:1], adjacency=ring_graph(3))
        assert sorted(calls) == ["_check_adjacency", "graph_diameter"]

    @pytest.mark.parametrize("topology, rounds, diameter", [(ring_graph, 10, 10), (line_graph, 19, 19)])
    def test_scale20_steps_take_one_flood(self, topology, rounds, diameter, monkeypatch):
        """On the benchmark's 20-target instance every shared vector is one
        flood of D rounds, D the graph's diameter: each Newton step takes D
        rounds, and the setup, the starting point and the read-out take
        three more floods, so total_rounds == (3 + steps) * D. One step
        clamps 19 targets to their floors and gives t12 the rest, so that is
        40 on the 20-ring and 76 on the 20-line. q* and gamma* equal the
        centralized ones bit for bit."""
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        targets = [LtiTarget(**t) for t in workloads.scale20_targets()]
        adj = topology(20)
        assert graph_diameter(adj) == diameter
        central = solve_distribution(targets)
        dist = solve_distributed(targets, adjacency=adj)
        assert dist.solution.gamma_star == central.gamma_star
        assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
        assert dist.consensus_rounds == (rounds,) * central.outer_iterations
        assert dist.total_rounds == (3 + central.outer_iterations) * diameter
        assert dist.total_rounds == {10: 40, 19: 76}[diameter]

    def test_rejects_disconnected_graph(self, pair):
        with pytest.raises(ValueError, match="connected"):
            solve_distributed(pair, adjacency=np.zeros((2, 2), dtype=bool))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_distributed([])