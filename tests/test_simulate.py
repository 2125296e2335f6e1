"""Filtering, schedule evaluation, Monte Carlo, and the lookahead baseline.

Hand-derived filter oracle used below: scalar plant a = 1, C = 1, Q = 0,
R = 1, prediction covariance P = 1, estimate 0. A measurement y = 2 gives
gain P/(P + R) = 1/2, posterior estimate 1, and next covariance
P - P^2/(P + R) = 1/2.
"""
import itertools

import numpy as np
import pytest

from sensorsched import (
    FilterState,
    LtiTarget,
    ScheduleDistribution,
    ScheduleSequence,
    build_min_consecutive_schedule,
    covariance_step,
    evaluate_schedule,
    g_q,
    kalman_step,
    monte_carlo_expected_cost,
    sliding_window_schedule,
    solve_mare,
)
from sensorsched.mare import _riccati_step
from sensorsched.simulate import default_burn_in

PAIR_Q = ScheduleDistribution([0.674, 0.326])


def random_target(rng) -> LtiTarget:
    n = int(rng.integers(1, 4))
    A = rng.normal(scale=0.8, size=(n, n))
    G = rng.normal(size=(n, n))
    C = rng.normal(size=(1, n))
    return LtiTarget(A=A, C=C, Q=G @ G.T + 0.1 * np.eye(n), R=[[0.5]])


class TestCovarianceStep:
    def test_matches_riccati_map_endpoints(self, pair):
        t = pair[0]
        P = 2.0 * np.eye(2)
        assert np.allclose(covariance_step(t, P, True), g_q(t, 1.0, P), rtol=1e-12)
        assert np.allclose(covariance_step(t, P, False), g_q(t, 0.0, P), rtol=1e-12)

    def test_unobserved_is_open_loop(self, pair):
        t = pair[1]
        P = np.eye(2)
        assert np.allclose(covariance_step(t, P, False), t.A @ P @ t.A.T + t.Q)

    def test_fixed_point_is_stationary(self, pair):
        t = pair[0]
        X = solve_mare(t, 1.0).X
        assert np.allclose(covariance_step(t, X, True), X, atol=1e-7)

    def test_repeated_observation_converges_to_fixed_point(self, pair):
        t = pair[0]
        P = t.Q.copy()
        for _ in range(200):
            P = covariance_step(t, P, True)
        assert np.allclose(P, solve_mare(t, 1.0).X, rtol=1e-9)

    def test_preserves_symmetry_and_psd(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = random_target(rng)
            P = t.Q.copy()
            for _ in range(40):
                P = covariance_step(t, P, bool(rng.integers(2)))
                assert np.array_equal(P, P.T)
                scale = max(1.0, float(np.abs(P).max()))
                assert np.linalg.eigvalsh(P)[0] >= -1e-9 * scale


class TestKalmanStep:
    UNIT = LtiTarget(A=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]])

    def test_measurement_update(self):
        state = FilterState(x_hat=np.array([0.0]), P=np.array([[1.0]]))
        out = kalman_step(self.UNIT, state, np.array([2.0]))
        assert out.x_hat[0] == pytest.approx(1.0)
        assert out.P[0, 0] == pytest.approx(0.5)

    def test_skipped_measurement_propagates_prior(self, pair):
        t = pair[0]
        state = FilterState(x_hat=np.array([1.0, -2.0]), P=t.Q.copy())
        out = kalman_step(t, state)
        assert np.allclose(out.x_hat, t.A @ state.x_hat)
        assert np.allclose(out.P, covariance_step(t, state.P, False))

    def test_rejects_wrong_measurement_dimension(self, pair):
        state = FilterState(x_hat=np.zeros(2), P=pair[0].Q.copy())
        with pytest.raises(ValueError, match="dimension"):
            kalman_step(pair[0], state, np.array([1.0, 2.0]))

    def test_covariance_track_matches_evaluation(self, pair):
        """Filtering a schedule shows the exact traces evaluate_schedule reports."""
        t = pair[0]
        seq = build_min_consecutive_schedule(PAIR_Q, 40)
        report = evaluate_schedule(pair, seq, keep_series=True)
        state = FilterState(x_hat=np.zeros(2), P=t.Q.copy())
        for k in range(len(seq)):
            assert np.trace(state.P) == report.trace_series[k, 0]
            meas = np.array([0.0]) if seq.steps[k] == 0 else None
            state = kalman_step(t, state, meas)


class TestEvaluateSchedule:
    def test_constant_observation_averages_to_fixed_point(self, pair):
        t = pair[0]
        seq = ScheduleSequence(np.zeros(300, dtype=np.int64), 1)
        rep = evaluate_schedule([t], seq)
        assert rep.per_target_avg_trace[0] == pytest.approx(
            t.cost_of(solve_mare(t, 1.0).X), rel=1e-8
        )
        assert rep.max_over_targets == rep.per_target_avg_trace.max()

    def test_identical_targets_alternating_are_symmetric(self):
        twins = [
            LtiTarget(A=[[0.0, 1.0], [-0.49, 1.4]], C=[[1.0, 0.0]], Q=5.0 * np.eye(2), R=[[0.5]])
            for _ in range(2)
        ]
        seq = ScheduleSequence(np.tile([0, 1], 300), 2)
        rep = evaluate_schedule(twins, seq)
        assert rep.per_target_avg_trace[0] == pytest.approx(
            rep.per_target_avg_trace[1], abs=1e-9
        )

    def test_rotation_effect_shrinks_with_horizon(self, pair):
        base = build_min_consecutive_schedule(PAIR_Q, 500)

        def rotation_diff(reps: int) -> float:
            tiled = np.tile(base.steps, reps)
            r0 = evaluate_schedule(pair, ScheduleSequence(tiled, 2)).max_over_targets
            r3 = evaluate_schedule(
                pair, ScheduleSequence(np.roll(tiled, 3), 2)
            ).max_over_targets
            return abs(r3 - r0)

        d_short, d_long = rotation_diff(2), rotation_diff(8)
        assert d_long < d_short / 2
        assert d_long * 4000 < 300.0

    def test_trace_series(self, pair):
        seq = build_min_consecutive_schedule(PAIR_Q, 30)
        rep = evaluate_schedule(pair, seq, keep_series=True)
        assert rep.trace_series.shape == (30, 2)
        assert rep.trace_series[0, 0] == pytest.approx(np.trace(pair[0].Q))
        assert rep.half_width is None
        assert evaluate_schedule(pair, seq).trace_series is None

    def test_default_burn_in(self):
        assert default_burn_in(50) == 10
        assert default_burn_in(5000) == 200

    def test_burn_in_validation(self, pair):
        seq = build_min_consecutive_schedule(PAIR_Q, 20)
        with pytest.raises(ValueError, match="burn_in"):
            evaluate_schedule(pair, seq, burn_in=20)
        with pytest.raises(ValueError, match="burn_in"):
            evaluate_schedule(pair, seq, burn_in=-1)
        rep = evaluate_schedule(pair, seq, burn_in=0)
        assert rep.per_target_avg_trace.shape == (2,)
        # the Monte Carlo shares the check: a burn-in of T would average
        # nothing, and a negative one would average only the last steps
        for burn_in in (10, -3):
            with pytest.raises(ValueError, match="burn_in"):
                monte_carlo_expected_cost(pair, PAIR_Q, T=10, runs=2, seed=0, burn_in=burn_in)

    def test_rejects_mismatched_sequence(self, pair):
        seq = ScheduleSequence(np.zeros(10, dtype=np.int64), 3)
        with pytest.raises(ValueError, match="3 targets"):
            evaluate_schedule(pair, seq)

    def test_rejects_wrong_initial_covariance_count(self, pair):
        seq = build_min_consecutive_schedule(PAIR_Q, 20)
        with pytest.raises(ValueError, match="initial covariances"):
            evaluate_schedule(pair, seq, P0=[np.eye(2)])


class TestBatchedStep:
    def test_matches_scalar_path(self, pair):
        rng = np.random.default_rng(5)
        t = pair[0]
        stack = np.stack([np.eye(2) + g @ g.T for g in rng.normal(size=(6, 2, 2))])
        observed = np.array([True, False, True, True, False, False])
        batched = _riccati_step(t, stack, observed[:, None, None])
        for b in range(6):
            single = covariance_step(t, stack[b], bool(observed[b]))
            assert np.array_equal(batched[b], single)
        q = rng.uniform(size=6)
        batched = _riccati_step(t, stack, q[:, None, None])
        for b in range(6):
            assert np.array_equal(batched[b], g_q(t, q[b], stack[b]))

    @pytest.mark.parametrize("p", [1, 2])
    def test_asymmetric_input_matches_textbook_formula(self, p):
        # nothing in the kernel may lean on P, Q or R being symmetric
        rng = np.random.default_rng(8)
        A, C = rng.normal(size=(3, 3)), rng.normal(size=(p, 3))
        Q, R = rng.normal(size=(3, 3)) + 4 * np.eye(3), rng.normal(size=(p, p)) + 4 * np.eye(p)
        t = LtiTarget(A=A, C=C, Q=Q, R=R)
        P = rng.normal(size=(5, 3, 3)) + 3 * np.eye(3)
        q = rng.uniform(size=(5, 1, 1))
        gain = A @ P @ C.T @ np.linalg.inv(C @ P @ C.T + R) @ C @ P @ A.T
        want = A @ P @ A.T + Q - q * gain
        want = (want + want.swapaxes(1, 2)) / 2
        got = _riccati_step(t, P, q)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMonteCarlo:
    def test_deterministic_per_seed(self, pair):
        a = monte_carlo_expected_cost(pair, PAIR_Q, T=120, runs=8, seed=9)
        b = monte_carlo_expected_cost(pair, PAIR_Q, T=120, runs=8, seed=9)
        assert a.expected.max_over_targets == b.expected.max_over_targets
        assert np.array_equal(a.expected.half_width, b.expected.half_width)

    def test_never_observed_target_reads_open_loop(self, pair):
        mc = monte_carlo_expected_cost(
            pair, ScheduleDistribution([1.0, 0.0]), T=400, runs=3, seed=0
        )
        always, never = mc.expected.per_target_avg_trace
        assert always == pytest.approx(pair[0].cost_of(solve_mare(pair[0], 1.0).X), rel=1e-6)
        assert never == pytest.approx(pair[1].cost_of(solve_mare(pair[1], 0.0).X), rel=1e-6)

    def test_empirical_cost_near_fixed_point_bound(self, pair):
        mc = monte_carlo_expected_cost(pair, PAIR_Q, T=500, runs=200, seed=42)
        # the fixed points at the optimal split put both targets near 59.1
        for i, t in enumerate(pair):
            bound = t.cost_of(solve_mare(t, PAIR_Q.q[i]).X)
            emp = mc.expected.per_target_avg_trace[i]
            assert emp <= bound + 3.0 * mc.expected.half_width[i] + 0.5
        assert mc.time_averaged.max_over_targets <= 59.1 + 1.0
        assert mc.runs == 200 and mc.T == 500

    def test_mixes_scalar_and_vector_measurements(self, pair, two_sensor):
        targets = [pair[0], two_sensor]
        q = ScheduleDistribution([0.6, 0.4])
        mc = monte_carlo_expected_cost(targets, q, T=500, runs=100, seed=4)
        for i, t in enumerate(targets):
            bound = t.cost_of(solve_mare(t, q.q[i]).X)
            emp = mc.expected.per_target_avg_trace[i]
            assert 0.0 < emp <= bound + 3.0 * mc.expected.half_width[i] + 0.5

    def test_single_run_has_zero_half_width(self, pair):
        mc = monte_carlo_expected_cost(pair, PAIR_Q, T=80, runs=1, seed=1)
        assert np.array_equal(mc.expected.half_width, np.zeros(2))

    def test_half_width_shrinks_with_runs(self, pair):
        few = monte_carlo_expected_cost(pair, PAIR_Q, T=200, runs=16, seed=3)
        many = monte_carlo_expected_cost(pair, PAIR_Q, T=200, runs=64, seed=3)
        assert many.expected.half_width.max() < few.expected.half_width.max()

    def test_mean_series(self, pair):
        mc = monte_carlo_expected_cost(
            pair, PAIR_Q, T=60, runs=4, seed=2, keep_mean_series=True
        )
        assert mc.mean_trace_series.shape == (60, 2)
        assert monte_carlo_expected_cost(
            pair, PAIR_Q, T=60, runs=4, seed=2
        ).mean_trace_series is None

    @pytest.mark.parametrize("T, runs", [(0, 5), (5, 0)])
    def test_rejects_degenerate_sizes(self, pair, T, runs):
        with pytest.raises(ValueError):
            monte_carlo_expected_cost(pair, PAIR_Q, T=T, runs=runs, seed=0)

    def test_rejects_wrong_distribution_length(self, pair):
        q3 = ScheduleDistribution([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="over 3"):
            monte_carlo_expected_cost(pair, q3, T=10, runs=2, seed=0)


class TestSlidingWindow:
    def test_window_one_is_greedy(self, pair):
        seq, _ = sliding_window_schedule(pair, window=1, T=40)
        covs = [t.Q.copy() for t in pair]
        for k in range(40):
            scores = []
            for move in range(2):
                stepped = [
                    covariance_step(t, covs[i], move == i) for i, t in enumerate(pair)
                ]
                scores.append(max(np.trace(P) for P in stepped))
            assert seq.steps[k] == int(np.argmin(scores))
            covs = [
                covariance_step(t, covs[i], seq.steps[k] == i)
                for i, t in enumerate(pair)
            ]

    def test_window_two_matches_exhaustive_rolling_search(self, pair, chain_trio):
        for targets, window in ((pair, 2), (chain_trio, 3)):
            n = len(targets)
            seq, _ = sliding_window_schedule(targets, window=window, T=6)
            covs = [t.Q.copy() for t in targets]
            expected = []
            for _ in range(6):
                best_score, best_plan = np.inf, None
                for plan in itertools.product(range(n), repeat=window):
                    rolled = [P.copy() for P in covs]
                    for move in plan:
                        rolled = [
                            covariance_step(t, rolled[i], move == i)
                            for i, t in enumerate(targets)
                        ]
                    score = max(np.trace(P) for P in rolled)
                    if score < best_score:
                        best_score, best_plan = score, plan
                expected.append(best_plan[0])
                covs = [
                    covariance_step(t, covs[i], best_plan[0] == i)
                    for i, t in enumerate(targets)
                ]
            assert seq.steps.tolist() == expected

    def test_one_new_level_per_step(self, chain_trio, monkeypatch):
        """The first window - 1 levels are built once; each step then adds
        one level (an observed and an open-loop update per target), and the
        report re-evaluates the committed schedule (one update per target
        and step)."""
        calls = []

        def counted(target, P, q):
            calls.append(q)
            return _riccati_step(target, P, q)

        monkeypatch.setattr("sensorsched.simulate._riccati_step", counted)
        n, window, T = 3, 3, 5
        sliding_window_schedule(chain_trio, window=window, T=T)
        assert len(calls) == 2 * n * (window - 1 + T) + n * T == 57

    def test_report_matches_reevaluation(self, pair):
        seq, rep = sliding_window_schedule(pair, window=2, T=30)
        again = evaluate_schedule(pair, seq)
        assert rep.max_over_targets == again.max_over_targets

    def test_end_scoring_can_defer_forever(self, pair):
        """Documented myopia: plans that park an observation at mid-window
        always win on end-of-window score, so the second target is never
        actually observed and its trace settles at the open-loop value."""
        seq, rep = sliding_window_schedule(pair, window=4, T=120)
        assert seq.counts().tolist() == [120, 0]
        assert rep.max_over_targets > 200.0

    def test_window_guards(self, pair):
        with pytest.raises(ValueError, match="window must be"):
            sliding_window_schedule(pair, window=0, T=5)
        with pytest.raises(ValueError, match="smaller window"):
            sliding_window_schedule(pair, window=21, T=5)