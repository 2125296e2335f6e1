"""Covariance steps, schedule evaluation, Monte Carlo, and the lookahead
baseline."""
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_chain_trio, make_pair, make_two_sensor
from sensorsched import (
    LtiTarget,
    ScheduleDistribution,
    ScheduleSequence,
    build_min_consecutive_schedule,
    covariance_step,
    evaluate_schedule,
    g_q,
    monte_carlo_expected_cost,
    sliding_window_schedule,
    solve_distribution,
    solve_mare,
)
from sensorsched.mare import _riccati_step, _system_rows
from sensorsched.simulate import _cost_paths, _draw_schedules, default_burn_in

PAIR_Q = ScheduleDistribution([0.674, 0.326])
TRIO_Q = (0.0649, 0.1612, 0.7739)


def random_target(rng) -> LtiTarget:
    n = int(rng.integers(1, 4))
    A = rng.normal(scale=0.8, size=(n, n))
    G = rng.normal(size=(n, n))
    C = rng.normal(size=(1, n))
    return LtiTarget(A=A, C=C, Q=G @ G.T + 0.1 * np.eye(n), R=[[0.5]])


def per_run_monte_carlo(targets, q, T, runs, seed):
    """The Monte Carlo one run at a time: each run's schedule drawn from
    its own child seed, each covariance advanced alone."""
    n, burn, tail = len(targets), default_burn_in(T), max(1, T // 5)
    traces = np.empty((n, runs, T))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(runs)):
        steps = np.random.default_rng(child).choice(n, size=T, p=q.q)
        for i, t in enumerate(targets):
            P = t.Q
            for k in range(T):
                traces[i, r, k] = t.cost_of(P)
                P = covariance_step(t, P, steps[k] == i)

    def report(per_run):  # [i, r], summed in the reports' [r, i] layout
        stat = np.ascontiguousarray(per_run.T)
        hw = 1.96 * stat.std(axis=0, ddof=1) / np.sqrt(runs) if runs > 1 else np.zeros(n)
        return stat.mean(axis=0), hw

    expected = report(traces[:, :, T - tail:].mean(axis=2))
    time_averaged = report(traces[:, :, burn:].mean(axis=2))
    return expected, time_averaged, traces.mean(axis=1).T


# exact 0 and 1 entries make every step uniform, near-0 and near-1 entries
# split a group now and then, and balanced entries split every group
weights = st.one_of(st.sampled_from([0.0, 1e-3, 1.0]), st.floats(0.05, 1.0))


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
        rep = evaluate_schedule(pair, seq)
        assert rep.trace_series.shape == (30, 2)
        assert rep.trace_series[0, 0] == pytest.approx(np.trace(pair[0].Q))
        assert rep.half_width is None
        # the averages are read off the series that is returned
        after_burn_in = rep.trace_series[default_burn_in(30):].mean(axis=0)
        assert np.array_equal(rep.per_target_avg_trace, after_burn_in)

    def test_default_burn_in(self):
        assert default_burn_in(50) == 10
        assert default_burn_in(5000) == 200

    def test_classes_equal_each_target_alone(self, pair, two_sensor, chain_trio):
        """One kernel call per dimension class and step gives every target
        the bits of its own covariance steps and costs, a fractional
        weighted one in the pair's class too."""
        weighted = LtiTarget(A=pair[0].A, C=pair[0].C, Q=pair[0].Q, R=pair[0].R,
                             cost_weights=[0.3, 1.7])
        targets = [pair[0], chain_trio[1], two_sensor, pair[1], chain_trio[0], weighted]
        p = [0.3, 0.1, 0.2, 0.2, 0.1, 0.1]
        steps = np.random.default_rng(3).choice(6, size=120, p=p)
        rep = evaluate_schedule(targets, ScheduleSequence(steps, 6))
        for i, t in enumerate(targets):
            P = t.Q
            for k in range(len(steps)):
                assert rep.trace_series[k, i] == t.cost_of(P)
                P = covariance_step(t, P, steps[k] == i)

    def test_unobserved_rows_form_no_gain(self, two_sensor):
        """A target never observed grows open loop until its innovation
        covariance is singular in floating point; sharing a kernel call
        with an observed target of its class must not solve with it."""
        blind = LtiTarget(A=np.diag([10.0, 0.5, 0.5]), C=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                          Q=np.eye(3), R=np.eye(2))
        targets = [two_sensor, blind]
        rep = evaluate_schedule(targets, ScheduleSequence(np.zeros(40, dtype=np.int64), 2))
        P = blind.Q
        for k in range(40):
            assert rep.trace_series[k, 1] == blind.cost_of(P)
            P = covariance_step(blind, P, False)
        mc = monte_carlo_expected_cost(targets, ScheduleDistribution([1.0, 0.0]), 40, 1, 0)
        assert np.array_equal(mc.mean_trace_series, rep.trace_series)
        # the same on a target that has fully split and steps alone: at
        # seed 108 run 0 never observes it and run 1 always does, so from
        # step 2 on run 0's row is singular while run 1's is observed
        blind = LtiTarget(A=np.diag([1e5, 0.5, 0.5]), C=blind.C, Q=blind.Q, R=blind.R)
        targets, q = [two_sensor, blind], ScheduleDistribution([0.5, 0.5])
        mc = monte_carlo_expected_cost(targets, q, 4, 2, 108)
        _, _, series = per_run_monte_carlo(targets, q, 4, 2, 108)
        assert np.array_equal(mc.mean_trace_series, series)
        P = np.stack([blind.Q, blind.Q], axis=-1)  # planes [n, n, rows]
        for _ in range(2):
            P = _riccati_step(blind, P, np.array([False, True]))
        assert np.linalg.matrix_rank(blind.C @ P[..., 0] @ blind.C.T + blind.R) == 1
        # a class stack of two such targets with per-row systems: the rows
        # grown open loop are singular and unobserved, the others observed
        other = LtiTarget(A=np.diag([1e5, 0.4, 0.6]), C=blind.C, Q=2 * np.eye(3), R=blind.R)
        owners, seen = [blind, other, blind, other], np.array([False, False, True, True])
        P = np.stack([t.Q for t in owners], axis=-1)
        for _ in range(3):
            P = _riccati_step(_system_rows(owners), P, seen)
        for r, t in enumerate(owners):
            assert np.linalg.matrix_rank(t.C @ P[..., r] @ t.C.T + t.R) == 1 + seen[r]
            assert np.array_equal(P[..., r], covariance_step(t, covariance_step(
                t, covariance_step(t, t.Q, seen[r]), seen[r]), seen[r]))
        # a mask that observes no row is q = 0 in the kernel itself: no
        # solve with the singular rows, each row its own open-loop step
        blank = _riccati_step(_system_rows(owners), P, np.zeros(4, dtype=bool))
        for r, t in enumerate(owners):
            assert np.array_equal(blank[..., r], covariance_step(t, P[..., r], False))

    def test_rejects_mismatched_sequence(self, pair):
        seq = ScheduleSequence(np.zeros(10, dtype=np.int64), 3)
        with pytest.raises(ValueError, match="3 targets"):
            evaluate_schedule(pair, seq)


class TestBatchedStep:
    def test_matches_scalar_path(self, pair):
        rng = np.random.default_rng(5)
        t = pair[0]
        # planes [n, n, rows] of one target
        stack = np.stack([np.eye(2) + g @ g.T for g in rng.normal(size=(6, 2, 2))], axis=-1)
        observed = np.array([True, False, True, True, False, False])
        batched = _riccati_step(t, stack, observed)
        for b in range(6):
            single = covariance_step(t, stack[..., b], bool(observed[b]))
            assert np.array_equal(batched[..., b], single)
        q = rng.uniform(size=6)
        batched = _riccati_step(t, stack, q)
        for b in range(6):
            assert np.array_equal(batched[..., b], g_q(t, q[b], stack[..., b]))

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
        # planes of the one target, and of per-row systems
        planes = np.ascontiguousarray(P.transpose(1, 2, 0))
        got = _riccati_step(t, planes, q)
        assert np.abs(got.transpose(2, 0, 1) - want).max() <= 1e-12 * np.abs(want).max()
        got = _riccati_step(_system_rows([t] * 5), planes, q)
        assert np.abs(got.transpose(2, 0, 1) - want).max() <= 1e-12 * np.abs(want).max()


class TestMonteCarlo:
    def test_draws_equal_per_run_choice(self, pair):
        """One searchsorted of every run's uniforms draws the schedules that
        each run's own `Generator.choice` would, bit for bit: on the pair's
        q* and on 20 targets, 19 of them at 1e-5."""
        rare = np.full(20, 1e-5)
        rare[7] = 1.0 - rare.sum() + 1e-5
        for q, T, runs, seed in ((solve_distribution(pair).q_star, 500, 1000, 1),
                                 (ScheduleDistribution(rare), 500, 200, 3)):
            steps = np.empty((T, runs), dtype=np.min_scalar_type(len(q) - 1))
            for r, child in enumerate(np.random.SeedSequence(seed).spawn(runs)):
                steps[:, r] = np.random.default_rng(child).choice(len(q), size=T, p=q.q)
            drawn = _draw_schedules(q, T, runs, seed)
            assert drawn.dtype == steps.dtype
            assert np.array_equal(drawn, steps)

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

    def test_delay_chains_score_the_physical_state(self, chain_trio):
        # the optimizer's cost weights reach the simulation: counting the
        # delayed copies put the trio 9 to 124 half-widths above its bound
        q = ScheduleDistribution(np.array(TRIO_Q) / sum(TRIO_Q))
        mc = monte_carlo_expected_cost(chain_trio, q, T=500, runs=200, seed=1)
        for i, t in enumerate(chain_trio):
            bound = t.cost_of(solve_mare(t, q.q[i]).X)
            emp, hw = mc.expected.per_target_avg_trace[i], mc.expected.half_width[i]
            assert abs(emp - bound) <= 4.0 * hw

    def test_single_run_has_zero_half_width(self, pair):
        mc = monte_carlo_expected_cost(pair, PAIR_Q, T=80, runs=1, seed=1)
        assert np.array_equal(mc.expected.half_width, np.zeros(2))

    def test_half_width_shrinks_with_runs(self, pair):
        few = monte_carlo_expected_cost(pair, PAIR_Q, T=200, runs=16, seed=3)
        many = monte_carlo_expected_cost(pair, PAIR_Q, T=200, runs=64, seed=3)
        assert many.expected.half_width.max() < few.expected.half_width.max()

    def test_mean_series(self, pair):
        mc = monte_carlo_expected_cost(pair, PAIR_Q, T=60, runs=4, seed=2)
        assert mc.mean_trace_series.shape == (60, 2)
        # the terminal estimate is the run mean over the last T // 5 steps
        terminal = mc.mean_trace_series[-12:].mean(axis=0)
        assert terminal == pytest.approx(mc.expected.per_target_avg_trace, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        pool=st.lists(st.integers(0, 3), min_size=1, max_size=4),
        w=st.lists(weights, min_size=4, max_size=4),
        runs=st.integers(1, 64),
        T=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pool=[0, 2], w=[1.0, 1e-3, 0.0], runs=64, T=60, seed=1)
    @example(pool=[2, 1, 0], w=[1.0, 0.0, 0.0], runs=17, T=40, seed=2)
    @example(pool=[0, 1, 2], w=[0.5, 0.3, 0.2], runs=64, T=60, seed=3)
    # noisy splits fully and leaves the shared stack while the second
    # drifty, rarely observed, stays in it with the chain's class beside
    @example(pool=[0, 1, 1, 3], w=[0.5, 0.4, 2e-3, 0.1], runs=64, T=60, seed=4)
    # one run: every target has a row per run from the start
    @example(pool=[3, 0, 2], w=[0.3, 0.5, 0.2], runs=1, T=30, seed=5)
    # many runs: both targets grow to 300 batched rows in the shared stack
    # before they fully split and leave it
    @example(pool=[0, 1], w=[0.6, 0.4], runs=300, T=40, seed=6)
    def test_grouped_runs_equal_per_run_reference(self, pool, w, runs, T, seed):
        """Sharing a covariance between the runs with one observation
        history, and a kernel call between the targets of one dimension
        class, must give every run its own covariances bit for bit."""
        everyone = [*make_pair(), make_two_sensor(), make_chain_trio()[1]]
        targets = [everyone[j] for j in pool]
        w = np.array(w[:len(targets)])
        if not w.any():
            w[0] = 1.0
        q = ScheduleDistribution(w / w.sum())
        mc = monte_carlo_expected_cost(targets, q, T, runs, seed)
        expected, time_averaged, series = per_run_monte_carlo(targets, q, T, runs, seed)
        assert np.array_equal(mc.mean_trace_series, series)
        for rep, (mean, hw) in ((mc.expected, expected), (mc.time_averaged, time_averaged)):
            assert np.array_equal(rep.per_target_avg_trace, mean)
            assert np.array_equal(rep.half_width, hw)

    def test_kernel_rows_follow_histories(self, pair, monkeypatch):
        """One kernel call per dimension class and step, with one row per
        distinct observation history: the rarely observed target's runs
        share a row until they are seen, so a split never costs a second
        call, and both targets share each call."""
        calls, rows = [], []

        def counted(system, P, q):
            calls.append(system)
            rows.append(P.shape[-1])
            return _riccati_step(system, P, q)

        monkeypatch.setattr("sensorsched.simulate._riccati_step", counted)
        n, runs, T = 2, 200, 200
        q = ScheduleDistribution([1 - 1e-3, 1e-3])
        monte_carlo_expected_cost(pair, q, T=T, runs=runs, seed=5)
        assert len(calls) == T
        assert not any(isinstance(system, LtiTarget) for system in calls)
        # 6172 rows at this seed, against runs * T * n = 80000 when every
        # run has a row of its own
        assert sum(rows) < runs * T * n // 10

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.lists(weights, min_size=3, max_size=3),
        runs=st.integers(1, 40),
        T=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    # noisy and drifty split fully and leave at different steps while far,
    # rarely observed, keeps a few rows in its own stack
    @example(w=[0.5, 0.01, 0.49], runs=40, T=30, seed=1)
    # two runs: a target leaves at its first split
    @example(w=[0.4, 0.3, 0.3], runs=2, T=10, seed=2)
    def test_kernel_rows_are_the_distinct_histories(self, w, runs, T, seed):
        """Each stacked kernel call has one row per distinct observation
        history (bits up to and including its step) of every target still
        stacked; a target leaves at the step its histories number `runs`
        and then makes one call of its own per remaining step."""
        noisy, drifty = make_pair()
        far = make_chain_trio()[2]
        targets = [noisy, far, drifty]  # classes (2, 1) and (3, 1)
        w = np.array(w)
        if not w.any():
            w[0] = 1.0
        steps = np.random.default_rng(seed).choice(3, size=(T, runs), p=w / w.sum())
        calls = []

        def counted(system, P, q):
            calls.append(system.label if isinstance(system, LtiTarget) else (len(P), P.shape[-1]))
            return _riccati_step(system, P, q)

        with mock.patch("sensorsched.simulate._riccati_step", counted):
            for _ in _cost_paths(targets, steps):
                pass

        want = []
        for n, members in ((2, [0, 2]), (3, [1])):
            # each run's bits so far as an integer, bit k for step k
            histories = {i: np.cumsum((steps == i) * 2 ** np.arange(T)[:, None], axis=0)
                         for i in members}
            distinct = {i: [len(np.unique(h)) for h in histories[i]] for i in members}
            leave = {i: next((k for k, m in enumerate(distinct[i]) if m == runs and runs > 1), T)
                     for i in members}
            for k in range(max(leave.values())):
                want.append((n, sum(distinct[i][k] for i in members if leave[i] > k)))
            for i in members:
                want += [targets[i].label] * (T - leave[i])
        assert calls == want

    def test_split_targets_leave_the_shared_stack(self, pair, monkeypatch):
        """Targets whose runs all have rows of their own step alone, one
        2-D call each per step, from the step they fully split on."""
        calls = []

        def counted(system, P, q):
            calls.append(getattr(system, "label", "shared"))
            return _riccati_step(system, P, q)

        monkeypatch.setattr("sensorsched.simulate._riccati_step", counted)
        T = 60
        monte_carlo_expected_cost(pair, PAIR_Q, T=T, runs=32, seed=7)
        shared = calls.count("shared")
        # the pair's histories are complementary, so both leave together
        assert 0 < shared < T
        assert calls[:shared] == ["shared"] * shared
        assert calls.count("noisy") == calls.count("drifty") == T - shared

    def test_weighted_costs_in_a_mixed_stack(self, pair, chain_trio):
        """A target with cost weights is scored by its own weights, and
        reads the same bits whether or not it shares its stack."""
        weighted = LtiTarget(A=pair[0].A, C=pair[0].C, Q=pair[0].Q, R=pair[0].R,
                             cost_weights=[0.3, 1.7])
        q = ScheduleDistribution([0.5, 0.499, 0.001])
        shared = monte_carlo_expected_cost([pair[0], weighted, chain_trio[0]], q, 50, 40, 8)
        alone = monte_carlo_expected_cost([chain_trio[1], weighted, chain_trio[2]], q, 50, 40, 8)
        assert np.array_equal(shared.mean_trace_series[:, 1], alone.mean_trace_series[:, 1])
        for rep in ("expected", "time_averaged"):
            a, b = getattr(shared, rep), getattr(alone, rep)
            assert a.per_target_avg_trace[1] == b.per_target_avg_trace[1]
            assert a.half_width[1] == b.half_width[1]
        _, _, series = per_run_monte_carlo([pair[0], weighted, chain_trio[0]], q, 50, 40, 8)
        assert np.array_equal(shared.mean_trace_series, series)
        assert not np.allclose(series[:, 0], series[:, 1])

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
                    score = max(t.cost_of(P) for t, P in zip(targets, rolled))
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
        one level (one update per target, observed on its own branch and
        open loop on the others), and the report re-evaluates the committed
        schedule (one update per dimension class and step: the trio's
        chains have two and three states)."""
        calls = []

        def counted(target, P, q):
            calls.append(q)
            return _riccati_step(target, P, q)

        monkeypatch.setattr("sensorsched.simulate._riccati_step", counted)
        n, classes, window, T = 3, 2, 3, 5
        sliding_window_schedule(chain_trio, window=window, T=T)
        assert len(calls) == n * (window - 1 + T) + classes * T == 31

    def test_each_leaf_has_the_bits_of_its_own_update(self, pair, chain_trio, two_sensor,
                                                        monkeypatch):
        """A level is one masked call per target on its stack repeated
        n-fold; each leaf must equal its parent's own observed (q = 1) or
        open-loop (q = 0) update, bit for bit, as when those were two
        calls."""
        calls = []

        def recorded(target, P, q):
            out = _riccati_step(target, P, q)
            calls.append((target, P, q, out))
            return out

        monkeypatch.setattr("sensorsched.simulate._riccati_step", recorded)
        monkeypatch.setattr("sensorsched.simulate.evaluate_schedule", lambda *args: None)
        for targets, window in ((pair, 3), (chain_trio, 2), ([two_sensor, pair[0]], 3)):
            sliding_window_schedule(targets, window=window, T=4)
        assert len(calls) == 2 * 6 + 3 * 5 + 2 * 6
        for target, P, q, out in calls:
            assert q.dtype == bool and q.shape == P.shape[-1:]
            for leaf in range(P.shape[-1]):
                own = _riccati_step(target, np.ascontiguousarray(P[..., leaf]), float(q[leaf]))
                assert np.array_equal(out[..., leaf], own)

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