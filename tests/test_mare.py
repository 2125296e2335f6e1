"""Fixed-point map, solver, closed form, and critical probability.

Frozen oracle values and where they come from:

* golden ratio: for a = C = Q = R = 1 at q = 1 the fixed-point equation
  x = x + 1 - x^2 / (x + 1) reduces to x^2 = x + 1, so x = (1+sqrt(5))/2.
* open loop: at q = 0 the map is the scalar Lyapunov recursion with limit
  Q / (1 - a^2) for |a| < 1.
* one-step value: g(1) at a = C = Q = R = 1, q = 1 is 1 + 1 - 1/(1+1) = 1.5.
* scalar critical probability: 1 - 1/a^2.
* always-observed fixed point: cross-checked against scipy's independent
  Riccati solver through the estimation-form duality X = dare(A^T, C^T, Q, R).
"""
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from sensorsched import (
    ConditioningWarning,
    DelayChainSpec,
    LtiTarget,
    MareStatus,
    closed_form_delay_chain,
    critical_probability,
    expand_delay_chain,
    g_q,
    solve_mare,
)
from sensorsched.mare import _fixed_point_slope, check_covariance, symmetrize

UNIT_SCALAR = LtiTarget(A=1.0, C=1.0, Q=1.0, R=1.0)


def scalar_target(a: float, q: float = 1.0, r: float = 1.0) -> LtiTarget:
    return LtiTarget(A=[[a]], C=[[1.0]], Q=[[q]], R=[[r]])


class TestMap:
    def test_one_step_value(self):
        out = g_q(UNIT_SCALAR, 1.0, [[1.0]])
        assert out[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_endpoints_interpolate(self, pair):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(2, 2))
        X = V @ V.T + np.eye(2)
        t = pair[0]
        lyap = t.A @ X @ t.A.T + t.Q
        np.testing.assert_allclose(g_q(t, 0.0, X), lyap, rtol=1e-12)
        half = g_q(t, 0.5, X)
        full = g_q(t, 1.0, X)
        np.testing.assert_allclose(half, (lyap + full) / 2, rtol=1e-12)

    def test_rejects_bad_probability(self):
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError):
                g_q(UNIT_SCALAR, q, [[1.0]])

    def test_validates_covariance(self):
        with pytest.raises(ValueError):
            g_q(UNIT_SCALAR, 0.5, [[-1.0]])
        with pytest.raises(ValueError):
            check_covariance([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"X must be square, got shape \(3,\)"):
            check_covariance(np.zeros(3))

    def test_symmetrize(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        S = symmetrize(M)
        np.testing.assert_array_equal(S, S.T)


class TestSolver:
    def test_golden_ratio_fixed_point(self):
        res = solve_mare(UNIT_SCALAR, 1.0)
        assert res.converged
        assert res.X[0, 0] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-8)

    def test_open_loop_lyapunov_limit(self):
        t = scalar_target(0.9, q=2.0)
        res = solve_mare(t, 0.0)
        assert res.converged
        assert res.X[0, 0] == pytest.approx(2.0 / (1 - 0.81), rel=1e-8)

    def test_matches_independent_riccati_solver(self, pair, two_sensor):
        for t in [*pair, two_sensor]:
            res = solve_mare(t, 1.0)
            assert res.converged
            assert res.residual <= 1e-7 * (1 + np.linalg.norm(res.X))
            want = solve_discrete_are(t.A.T, t.C.T, t.Q, t.R)
            np.testing.assert_allclose(res.X, want, rtol=1e-7)

    def test_initial_condition_does_not_matter(self, pair):
        t = pair[1]
        a = solve_mare(t, 0.7)
        b = solve_mare(t, 0.7, x0=1e4 * np.eye(2))
        assert a.converged and b.converged
        np.testing.assert_allclose(a.X, b.X, rtol=1e-6)

    def test_residual_is_small(self, pair):
        res = solve_mare(pair[0], 0.8)
        assert res.residual <= 1e-7 * (1 + np.linalg.norm(res.X))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_mare(UNIT_SCALAR, -0.2)

    def test_divergence_below_threshold(self):
        # scalar boundary: fixed point exists iff q > 1 - 1/a^2
        t = scalar_target(2.0)
        assert solve_mare(t, 0.2).status is MareStatus.DIVERGED
        assert solve_mare(t, 0.2).X is None
        assert solve_mare(t, 0.8).converged

    def test_slow_divergence_is_caught(self):
        # Two outputs and two unstable modes: no closed form decides, so the
        # trace cap must. q^c is the lower bound 1 - 1/1.2^2 = 0.3056, and
        # 6e-3 below it the trace grows by 0.8 % a step.
        t = LtiTarget(A=np.diag([1.2, 1.1]), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
        assert t.critical_closed_form is None
        res = solve_mare(t, 0.3)
        assert res.status is MareStatus.DIVERGED
        assert res.iterations > 1000

    def test_iteration_budget_is_reported(self):
        # close enough to q^c = 0.75 that plain steps must run for hundreds
        # of iterations before a Newton step can be certified
        t = scalar_target(2.0)
        res = solve_mare(t, 0.750001, max_iter=50)
        assert res.status is MareStatus.MAX_ITERATIONS
        assert not res.converged
        assert res.X is not None
        assert res.iterations == 50

    @pytest.mark.parametrize("a,gap,budget", [(1.3, 1e-5, 300), (1.3, 1e-7, 1500), (2.0, 1e-7, 1000)])
    def test_newton_rounding_floor_converges(self, a, gap, budget):
        # At q^c + 1e-5 for a = 1.3 the fixed point is ~1e5, and g_q's rounding
        # (one ulp, ~1.5e-11) amplified by the near-singular Newton system
        # moves the certified iterates by ~1e-6, ~1e-11 relative: far below
        # the 1e-9 relative step test, which ends the solve there.
        # At q^c + 1e-7 the first certified iterate overshoots to a trace of
        # ~1e10 and the next lands ~2e-6 relative below the fixed point, still
        # inside the certificate's slack; the step after that rises by far
        # more than the step test allows, so the solve must go on.
        q = 1 - 1 / a**2 + gap
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            res = solve_mare(scalar_target(a), q, max_iter=3000)
        assert res.converged
        assert res.iterations <= budget
        exact = closed_form_delay_chain(DelayChainSpec(a=a, Q=1.0, R=1.0, d=0), q)
        # the conditioning near q^c amplifies rounding to ~1e-9 relative
        np.testing.assert_allclose(res.X, exact, rtol=1e-8)

    def test_monotone_in_probability(self):
        """More frequent observation never increases the fixed point."""
        rng = np.random.default_rng(17)
        done = 0
        while done < 20:
            A = rng.normal(size=(2, 2))
            A *= rng.uniform(0.3, 1.2) / max(np.abs(np.linalg.eigvals(A)))
            V = rng.normal(size=(2, 2))
            t = LtiTarget(A=A, C=rng.normal(size=(1, 2)), Q=V @ V.T + 0.1 * np.eye(2),
                          R=[[rng.uniform(0.2, 2.0)]])
            q1 = rng.uniform(0.3, 0.8)
            q2 = rng.uniform(q1 + 0.05, 1.0)
            r1, r2 = solve_mare(t, q1), solve_mare(t, q2)
            if not (r1.converged and r2.converged):
                continue
            diff = r1.X - r2.X
            scale = max(1.0, float(np.abs(r1.X).max()))
            assert np.linalg.eigvalsh(diff).min() >= -1e-8 * scale
            done += 1


class TestCriticalProbability:
    def test_stable_targets_are_free(self, pair, chain_trio):
        for t in pair + chain_trio:
            assert critical_probability(t) == 0.0

    @pytest.mark.parametrize("a", [1.5, 2.0])
    def test_scalar_closed_form(self, a):
        t = scalar_target(a)
        qc = critical_probability(t, tol=1e-4)
        exact = 1 - 1 / a**2
        # bisection returns the certified-feasible endpoint: errs upward only
        assert exact - 1e-6 <= qc <= exact + 2.5e-4

    def test_result_is_deterministic(self):
        t = scalar_target(1.5)
        first = critical_probability(t, tol=1e-4)
        assert critical_probability(t, tol=1e-4) == first

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tol_must_be_positive(self, tol):
        # the target has a closed form, which needs no tol; it is checked first
        t = LtiTarget(A=[[1.1, 1.0], [0.0, 1.2]], C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]])
        with pytest.raises(ValueError, match="tol must be positive"):
            critical_probability(t, tol=tol)

    def test_two_outputs_beyond_the_closed_form_are_bisected(self):
        # A rotation of radius 1.2 seen by output 1 beside a real mode 1.1
        # seen by output 2: the blocks decouple, so q^c = 1 - 1/1.2^4, which
        # is neither the lower bound 1 - 1/1.2^2 nor 1 - 1/M(A)^2.
        c, s = np.cos(1.0), np.sin(1.0)
        A = np.zeros((3, 3))
        A[:2, :2] = 1.2 * np.array([[c, -s], [s, c]])
        A[2, 2] = 1.1
        t = LtiTarget(A=A, C=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], Q=np.eye(3), R=np.eye(2))
        # at width 1e-2 one more probe would land 6e-4 below q^c, where the
        # trace takes 31 000 iterations to reach the divergence cap
        qc = critical_probability(t, tol=2e-2)
        exact = 1 - 1 / 1.2**4
        # the feasible endpoint of a width-2e-2 bracket: errs upward only
        assert exact <= qc <= exact + 2e-2
        assert solve_mare(t, qc).converged

    def test_hopeless_target_warns(self):
        # unobservable: C = 0 makes every measurement useless
        t = LtiTarget(A=[[2.0]], C=[[0.0]], Q=[[1.0]], R=[[1.0]])
        with pytest.warns(RuntimeWarning, match="cannot be stabilized"):
            assert critical_probability(t) == 1.0

    def test_near_critical_conditioning_warning(self):
        t = scalar_target(2.0)
        qc = critical_probability(t, tol=1e-4)
        with pytest.warns(ConditioningWarning):
            solve_mare(t, qc + 5e-4, max_iter=300_000)

    def test_warning_measures_from_the_closed_form(self):
        # The rotation's two unstable modes put q^c = 1 - 1/r^4 = 0.31691
        # well above the lower bound 1 - 1/r^2 = 0.17350: the large fixed
        # points sit just above q^c, while at 0.174 nothing converges.
        t = LtiTarget(A=[[0.5943, -0.9256], [0.9256, 0.5943]], C=[[1.0, 0.0]],
                      Q=np.eye(2), R=[[1.0]])
        qc = critical_probability(t)
        with pytest.warns(ConditioningWarning, match="critical probability"):
            assert solve_mare(t, qc + 5e-4).converged
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            assert not solve_mare(t, 0.174).converged

    def test_stable_target_does_not_warn(self):
        # q^c = 0 here, and a stable target's fixed point stays bounded
        t = scalar_target(0.5)
        assert critical_probability(t) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            assert solve_mare(t, 5e-4).converged


class TestClosedForm:
    @pytest.mark.parametrize(
        "a,d,q",
        [(0.9, 0, 0.3), (1.0, 2, 0.5), (1.3, 1, 0.6), (-0.8, 3, 0.25), (1.0, 1, 0.064)],
    )
    def test_matches_iteration(self, a, d, q):
        spec = DelayChainSpec(a=a, Q=1.7, R=0.6, d=d)
        X = closed_form_delay_chain(spec, q)
        assert X is not None
        res = solve_mare(expand_delay_chain(spec), q, max_iter=300_000)
        assert res.converged
        np.testing.assert_allclose(res.X, X, rtol=1e-6, atol=1e-9 * np.abs(X).max())

    def test_negative_unit_root(self):
        # a = -1 shares the a = 1 fixed point up to the sign of a^|i-j|
        up = closed_form_delay_chain(DelayChainSpec(a=1.0, Q=1.0, R=1.0, d=2), 0.01)
        down = closed_form_delay_chain(DelayChainSpec(a=-1.0, Q=1.0, R=1.0, d=2), 0.01)
        i = np.arange(3)
        np.testing.assert_array_equal(down, up * (-1.0) ** np.abs(i[:, None] - i[None, :]))

    @pytest.mark.parametrize("a,q", [(1.5, 0.1), (1.0, 0.0), (2.0, 0.74)])
    def test_none_when_no_fixed_point(self, a, q):
        spec = DelayChainSpec(a=a, Q=1.0, R=1.0, d=1)
        assert closed_form_delay_chain(spec, q) is None

    def test_existence_boundary_is_sharp(self):
        # a^2 (1 - q) < 1 exactly
        spec = DelayChainSpec(a=2.0, Q=1.0, R=1.0, d=0)
        assert closed_form_delay_chain(spec, 0.75) is None
        assert closed_form_delay_chain(spec, 0.7501) is not None

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            closed_form_delay_chain(DelayChainSpec(a=1.0, Q=1.0, R=1.0), 1.5)

    @pytest.mark.parametrize("d", [0, 2])
    @pytest.mark.parametrize("a", [-1.0, 0.5, 1.0, 1.3])
    def test_oracle_exists_exactly_where_the_solve_does_not_diverge(self, a, d):
        # the oracle decides by a^2 (1 - q) < 1, the solve by the target's
        # fact; q^c = 1 - 1/1.3^2 itself is on the list
        spec = DelayChainSpec(a=a, Q=1.7, R=0.6, d=d)
        target = expand_delay_chain(spec)
        for q in (0.0, 1e-3, 0.2, 1.0 - 1.0 / 1.3**2, 0.41, 0.7, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                res = solve_mare(target, q)
            X = closed_form_delay_chain(spec, q)
            assert (X is None) == (res.status is MareStatus.DIVERGED)
            if X is not None:
                assert res.converged
                np.testing.assert_allclose(res.X, X, rtol=1e-6, atol=1e-9 * np.abs(X).max())


class TestFixedPointSlope:
    """dX/dq from the implicit function theorem, (I - L_X) X' = -K S K^T,
    against central differences of fixed points at q +- 1e-6."""

    @pytest.mark.parametrize(
        "a,d,q", [(0.9, 0, 0.3), (1.0, 2, 0.5), (1.3, 1, 0.6), (-0.8, 3, 0.25)]
    )
    def test_matches_the_closed_form(self, a, d, q):
        spec = DelayChainSpec(a=a, Q=1.7, R=0.6, d=d)
        h = 1e-6
        fd = (closed_form_delay_chain(spec, q + h) - closed_form_delay_chain(spec, q - h)) / (2 * h)
        slope = _fixed_point_slope(expand_delay_chain(spec), q, closed_form_delay_chain(spec, q))
        np.testing.assert_allclose(slope, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    @pytest.mark.parametrize(
        "which,q", [("noisy", 0.5), ("drifty", 0.3), ("two_sensor", 0.7), ("unstable", 0.9)]
    )
    def test_matches_solved_fixed_points(self, pair, two_sensor, unstable_scalar, which, q):
        target = {"noisy": pair[0], "drifty": pair[1], "two_sensor": two_sensor,
                  "unstable": unstable_scalar}[which]
        h = 1e-6
        lo, mid, hi = (solve_mare(target, q + dq) for dq in (-h, 0.0, h))
        assert lo.converged and mid.converged and hi.converged
        fd = (hi.X - lo.X) / (2 * h)
        slope = _fixed_point_slope(target, q, mid.X)
        np.testing.assert_allclose(slope, fd, rtol=1e-5, atol=1e-5 * np.abs(fd).max())
        # more observation can only shrink the fixed point
        assert np.linalg.eigvalsh(slope)[-1] <= 1e-12 * np.abs(slope).max()
