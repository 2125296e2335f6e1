"""Consensus machinery and the peer-to-peer solver.

The load-bearing check is exact agreement with the centralized solver:
consensus only replaces the demand sum, and its decision margin forces
every node down the same bisection branch, so the distributed run must
reproduce the centralized result bit for bit.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sensorsched import (
    InfeasibilityWarning,
    complete_graph,
    distributed,
    graph_diameter,
    line_graph,
    metropolis_weights,
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
    def test_bad_adjacency(self, adj, message):
        with pytest.raises(ValueError, match=message):
            metropolis_weights(adj)


class TestMetropolisWeights:
    def test_line_of_four(self):
        W = metropolis_weights(line_graph(4))
        # degrees 1,2,2,1: the end edges get 1/(1 + 2)
        assert W[0, 1] == pytest.approx(1 / 3)
        assert W[1, 2] == pytest.approx(1 / 3)
        assert np.allclose(W, W.T)
        assert np.allclose(W.sum(axis=1), 1.0)
        assert (W >= 0).all()

    def test_complete_graph_averages_in_one_step(self):
        W = metropolis_weights(complete_graph(5))
        assert np.allclose(W, np.full((5, 5), 0.2))

    @pytest.mark.parametrize("adj", [ring_graph(6), line_graph(5), complete_graph(3)])
    def test_contracts_toward_the_mean(self, adj):
        W = metropolis_weights(adj)
        eig = np.sort(np.abs(np.linalg.eigvalsh(W)))
        assert eig[-1] == pytest.approx(1.0)
        assert eig[-2] < 1.0


class TestAverageConsensus:
    def test_stops_once_the_verdict_is_certain(self):
        # the 4-ring's W has eigenvalues 1, 1/3 (twice) and -1/3: K = 2
        W = metropolis_weights(ring_graph(4))
        values = np.array([0.0, 1.0, 2.0, 3.0])
        est, rounds, decided = distributed._consensus_demand(values, W)
        assert decided
        assert rounds == 2
        assert np.all(est > 1.0)

    def test_pair_averages_in_one_round(self):
        W = metropolis_weights(line_graph(2))
        est, rounds, decided = distributed._consensus_demand(np.array([0.0, 0.6]), W)
        assert decided
        assert rounds == 1
        assert est[0] == est[1] == 0.6

    @pytest.mark.parametrize(
        "adj, rounds",
        [(ring_graph(20), 10), (line_graph(20), 19), (complete_graph(7), 1), (line_graph(2), 1)],
    )
    def test_one_round_per_distinct_non_unit_eigenvalue(self, adj, rounds):
        spectrum = distributed._leja_spectrum(metropolis_weights(adj))
        assert len(spectrum) == rounds
        assert np.all((spectrum > -1.0) & (spectrum < 1.0))


class TestSolveDistributed:
    def test_matches_centralized_on_pair(self, pair):
        central = solve_distribution(pair)
        dist = solve_distributed(pair)
        assert dist.solution.gamma_star == central.gamma_star
        assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
        for a, b in zip(dist.solution.per_target, central.per_target):
            assert a.q == b.q and a.cost == b.cost

    @pytest.mark.parametrize("topology", [complete_graph, ring_graph, line_graph])
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
        with pytest.warns(InfeasibilityWarning, match="floors leave no slack"):
            central = solve_distribution(no_slack_pair)
        with pytest.warns(InfeasibilityWarning, match="floors leave no slack"):
            dist = solve_distributed(no_slack_pair, adjacency=line_graph(2))
        assert dist.solution.feasible
        assert dist.solution.gamma_star == central.gamma_star
        assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
        # no outer step, so no consensus: only floods
        assert dist.consensus_rounds == ()

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
        counted("_leja_spectrum")
        solve_distributed(pair + pair[:1], adjacency=ring_graph(3))
        assert sorted(calls) == ["_check_adjacency", "_leja_spectrum", "graph_diameter"]

    @pytest.mark.parametrize("topology, rounds, diameter", [(ring_graph, 10, 10), (line_graph, 19, 19)])
    def test_scale20_steps_take_the_filter_rounds(self, topology, rounds, diameter, monkeypatch):
        """The benchmark's 20-target instance decides every outer step in
        the filter's K rounds, floods nowhere else than setup, bracket check
        and read-out, and returns the centralized q* and gamma* bit for bit."""
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        targets = [LtiTarget(**t) for t in workloads.scale20_targets()]
        central = solve_distribution(targets)
        dist = solve_distributed(targets, adjacency=topology(20))
        assert dist.solution.gamma_star == central.gamma_star
        assert np.array_equal(dist.solution.q_star.q, central.q_star.q)
        assert dist.consensus_rounds == (rounds,) * central.outer_iterations
        assert dist.total_rounds == 5 * diameter + rounds * central.outer_iterations

    def test_rejects_disconnected_graph(self, pair):
        with pytest.raises(ValueError, match="connected"):
            solve_distributed(pair, adjacency=np.zeros((2, 2), dtype=bool))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_distributed([])