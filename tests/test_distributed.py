"""Consensus machinery and the peer-to-peer solver.

The load-bearing check is exact agreement with the centralized solver:
consensus only replaces the demand sum, and its decision margin forces
every node down the same bisection branch, so the distributed run must
reproduce the centralized result bit for bit.
"""
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
    def test_reaches_the_mean(self):
        W = metropolis_weights(ring_graph(4))
        values = np.array([0.0, 1.0, 2.0, 3.0])
        est, rounds, decided = distributed._consensus_demand(values, W, 1e-12)
        assert decided
        assert np.allclose(est, 6.0, atol=1e-11)
        assert rounds > 1

    def test_pair_averages_in_one_round(self):
        W = metropolis_weights(line_graph(2))
        est, rounds, decided = distributed._consensus_demand(np.array([0.0, 0.6]), W, 1e-12)
        assert decided
        assert rounds == 1
        assert est[0] == est[1] == 0.6


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

    def test_trajectory_records_the_bisection(self, chain_trio):
        dist = solve_distributed(chain_trio, adjacency=line_graph(3))
        steps = dist.solution.outer_iterations
        assert len(dist.trajectory) == 3
        assert all(len(t) == steps for t in dist.trajectory)
        assert len(dist.consensus_rounds) == steps
        assert all(r >= 1 for r in dist.consensus_rounds)
        assert dist.total_rounds > sum(dist.consensus_rounds)
        for i, node_steps in enumerate(dist.trajectory):
            for k, st in enumerate(node_steps):
                assert st.node_id == i
                # the probed budget becomes one of the new endpoints
                assert st.gamma in (st.lo, st.hi)
                assert st.lo < st.hi
                assert 0.0 < st.q_local <= 1.0
                assert st.rounds == dist.consensus_rounds[k]
        # every node holds the same bracket at every step
        for k in range(steps):
            los = {t[k].lo for t in dist.trajectory}
            his = {t[k].hi for t in dist.trajectory}
            assert len(los) == 1 and len(his) == 1

    def test_line_needs_more_rounds_than_complete(self, chain_trio):
        on_line = solve_distributed(chain_trio, adjacency=line_graph(3))
        on_complete = solve_distributed(chain_trio, adjacency=complete_graph(3))
        assert on_line.total_rounds > on_complete.total_rounds

    def test_infeasible_report_is_empty(self, unstable_scalar):
        with pytest.warns(InfeasibilityWarning):
            dist = solve_distributed([unstable_scalar, unstable_scalar])
        assert not dist.solution.feasible
        assert dist.solution.q_star is None
        assert dist.trajectory == ((), ())
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
        assert dist.trajectory == ((), ())

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

    def test_rejects_disconnected_graph(self, pair):
        with pytest.raises(ValueError, match="connected"):
            solve_distributed(pair, adjacency=np.zeros((2, 2), dtype=bool))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_distributed([])