"""Target construction, validation, and the distribution type."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensorsched import (
    ConditioningWarning,
    DelayChainSpec,
    LtiTarget,
    MareStatus,
    ScheduleDistribution,
    critical_probability,
    expand_delay_chain,
    g_q,
    solve_distribution,
    solve_mare,
    validate_target,
)


def scalar_target(a: float, q: float = 1.0, r: float = 1.0, c: float = 1.0) -> LtiTarget:
    return LtiTarget(A=[[a]], C=[[c]], Q=[[q]], R=[[r]])


class TestLtiTarget:
    def test_dimensions(self, pair):
        t = pair[0]
        assert t.n == 2
        assert t.p == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(A=[[1.0, 0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]]),
            dict(A=np.eye(2), C=[[1.0]], Q=np.eye(2), R=[[1.0]]),
            dict(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(3), R=[[1.0]]),
            dict(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=np.eye(2)),
            dict(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]], cost_weights=[1.0]),
            dict(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]], cost_weights=[1.0, -1.0]),
        ],
    )
    def test_rejects_mismatched_shapes(self, kwargs):
        with pytest.raises(ValueError):
            LtiTarget(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["A", "C", "Q", "R", "cost_weights"])
    def test_rejects_non_finite_entries(self, name, bad):
        kwargs = dict(A=np.eye(2) * 0.5, C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]],
                      cost_weights=[1.0, 1.0])
        arr = np.array(kwargs[name], dtype=float)
        arr.flat[-1] = bad
        kwargs[name] = arr
        with pytest.raises(ValueError, match=f"^{name} must have finite entries only$"):
            LtiTarget(**kwargs)

    def test_spectrum_is_computed_once_and_frozen(self):
        A = np.array([[0.5943, -0.9256], [0.9256, 0.5943]])
        t = LtiTarget(A=A, C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]])
        assert np.array_equal(t.eigs, np.linalg.eigvals(A))
        assert t.rho == float(np.max(np.abs(np.linalg.eigvals(A))))
        with pytest.raises(ValueError):
            t.eigs[0] = 0.0
        with pytest.raises(AttributeError):
            t.rho = 0.0
        assert "eigs" not in repr(t)
        with pytest.raises(TypeError):
            LtiTarget(A=A, C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]], eigs=np.zeros(2))
        # so is the closed-form critical probability, 1 - 1/r^4 for a rotation
        r = float(np.abs(np.linalg.eigvals(A)[0]))
        assert t.critical_closed_form == pytest.approx(1.0 - 1.0 / r**4, abs=1e-12)
        assert t.critical_closed_form is t.critical_closed_form
        with pytest.raises(AttributeError):
            t.critical_closed_form = 0.0
        with pytest.raises(TypeError):
            LtiTarget(A=A, C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]], critical_closed_form=0.5)
        # and so is the (observable, driven) verdict of each mode
        assert t.pbh_modes is t.pbh_modes and t.pbh_modes.shape == (2, 2)
        with pytest.raises(ValueError):
            t.pbh_modes[0, 0] = False
        with pytest.raises(AttributeError):
            t.pbh_modes = None
        # two outputs and two unstable modes lie beyond the closed form
        wide = LtiTarget(A=np.diag([1.2, 1.1]), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
        assert wide.critical_closed_form is None

    def test_scalars_promote_to_matrices(self):
        t = LtiTarget(A=0.5, C=1.0, Q=2.0, R=1.0)
        assert t.A.shape == (1, 1)
        assert t.n == 1 and t.p == 1

    def test_arrays_are_frozen(self, pair):
        with pytest.raises(ValueError):
            pair[0].A[0, 0] = 9.0
        with pytest.raises(ValueError):
            pair[0].Q[1, 1] = 0.0

    def test_cost_of_defaults_to_trace(self, pair):
        X = np.diag([3.0, 4.0])
        assert pair[0].cost_of(X) == pytest.approx(7.0)

    def test_cost_of_with_weights(self):
        t = LtiTarget(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]],
                      cost_weights=[0.0, 2.0])
        assert t.cost_of(np.diag([3.0, 4.0])) == pytest.approx(8.0)


class TestScheduleDistribution:
    def test_valid(self):
        q = ScheduleDistribution([0.25, 0.75])
        assert len(q) == 2
        assert q[1] == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "values", [[], [0.5, 0.6], [-0.1, 1.1], [0.3, 0.3], [np.nan, 1.0], [np.nan]]
    )
    def test_invalid(self, values):
        with pytest.raises(ValueError):
            ScheduleDistribution(values)

    def test_entries_frozen(self):
        q = ScheduleDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            q.q[0] = 0.9


class TestDelayChain:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(Q=0.0), dict(R=-1.0), dict(d=-1), dict(d=1.5), dict(Q=float("nan")),
         dict(R=float("nan"))],
    )
    def test_spec_validation(self, kwargs):
        base = dict(a=1.0, Q=1.0, R=1.0, d=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            DelayChainSpec(**base)

    def test_expansion_structure(self):
        t = expand_delay_chain(DelayChainSpec(a=1.3, Q=2.0, R=0.5, d=2), label="x")
        assert t.n == 3
        expected_A = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 1.3]], dtype=float)
        np.testing.assert_array_equal(t.A, expected_A)
        np.testing.assert_array_equal(t.C, [[1.0, 0.0, 0.0]])
        # noise drives only the physical (last) state
        expected_Q = np.zeros((3, 3))
        expected_Q[2, 2] = 2.0
        np.testing.assert_array_equal(t.Q, expected_Q)
        np.testing.assert_array_equal(t.R, [[0.5]])
        # cost counts the physical state only, not the bookkeeping copies
        np.testing.assert_array_equal(t.cost_weights, [0.0, 0.0, 1.0])
        assert t.label == "x"

    def test_zero_delay_is_plain_scalar(self):
        t = expand_delay_chain(DelayChainSpec(a=0.8, Q=1.0, R=1.0, d=0))
        assert t.n == 1
        assert t.A[0, 0] == pytest.approx(0.8)


class TestValidateTarget:
    def test_benchmark_pair_is_clean(self, pair):
        for t in pair:
            report = validate_target(t)
            assert report.ok
            assert report.warnings == ()

    def test_chain_trio_warns_about_singular_noise(self, chain_trio):
        for t in chain_trio:
            report = validate_target(t)
            assert report.ok
            assert any("singular" in w for w in report.warnings)

    def test_rejects_indefinite_R(self):
        t = scalar_target(0.5, r=1.0)
        bad = LtiTarget(A=t.A, C=t.C, Q=t.Q, R=[[0.0]])
        report = validate_target(bad)
        assert not report.ok
        assert any("positive definite" in f for f in report.failures)

    def test_rejects_negative_Q(self):
        bad = LtiTarget(A=np.eye(2) * 0.5, C=[[1.0, 0.0]], Q=np.diag([1.0, -1.0]), R=[[1.0]])
        report = validate_target(bad)
        assert not report.ok
        assert report.failures == ("Q is not positive semidefinite (min eigenvalue -1.000e+00)",)

    def test_rejects_asymmetric_Q(self):
        bad = LtiTarget(A=np.eye(2) * 0.5, C=[[1.0, 0.0]],
                        Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]])
        assert not validate_target(bad).ok

    def test_rejects_unobservable_unstable_mode(self):
        # the growing mode is invisible to the sensor, so no schedule helps
        bad = LtiTarget(A=np.diag([2.0, 0.5]), C=[[0.0, 1.0]], Q=np.eye(2), R=[[1.0]])
        report = validate_target(bad)
        assert not report.ok
        assert any("unobservable" in f for f in report.failures)

    def test_observable_unstable_mode_is_fine(self):
        ok = LtiTarget(A=np.diag([2.0, 0.5]), C=[[1.0, 1.0]], Q=np.eye(2), R=[[1.0]])
        assert validate_target(ok).ok

    def test_unobservable_mode_within_the_unit_circle_band_fails(self):
        # |mode| = 1 - 1e-10 lies within 1e-9 of the unit circle, the band
        # every layer uses, so it counts as on it and must be observable
        bad = LtiTarget(A=np.diag([1.0 - 1e-10, 0.5]), C=[[0.0, 1.0]], Q=np.eye(2), R=[[1.0]])
        report = validate_target(bad)
        assert not report.ok
        assert any("unobservable" in f for f in report.failures)


def modal_target(lams, c, d, seed) -> LtiTarget:
    """A single-output target with real modes `lams`, output weight c[i]
    and noise variance d[i] on mode i, in the basis of a random rotation
    (none when seed is None)."""
    n = len(lams)
    S = np.eye(n) if seed is None else np.linalg.qr(
        np.random.default_rng(seed).normal(size=(n, n)))[0]
    return LtiTarget(A=S @ np.diag(lams) @ S.T, C=[c[:n]] @ S.T,
                     Q=S @ np.diag(d[:n]) @ S.T, R=[[1.0]])


def plain_traces(t: LtiTarget, q: float, steps: int = 2000) -> list[float]:
    """trace(g_q^k(Q)) for k = 0..steps, stopping once it passes 1e12 or
    rises by less than 1e-13 of itself: plain iteration, which reads no
    fact of the target. The iterates rise monotonically from Q, to the
    least fixed point when one exists and without bound otherwise."""
    X, traces = t.Q, [float(np.trace(t.Q))]
    for _ in range(steps):
        X = g_q(t, q, X, validate=False)
        traces.append(float(np.trace(X)))
        if traces[-1] > 1e12 or traces[-1] - traces[-2] <= 1e-13 * traces[-1]:
            break
    return traces


# A = diag(1.3, 0.5), noise 1e-10 on the growing mode: cond(Q) = 1e10, so
# ranking Q itself would call that mode undriven while Q^(1/2) drives it
WEAK = dict(lams=[1.3, 0.5], c=[1.0, 1.0], d=[1e-10, 1.0], seed=None)


class TestModalFacts:
    """`pbh_modes` is the one rank rule: validation and the closed-form
    critical probability read the same verdict for every mode."""

    @settings(max_examples=80, deadline=None)
    @given(
        lams=st.lists(st.floats(-2.5, 2.5).filter(lambda x: abs(abs(x) - 1.0) > 1e-3),
                      min_size=1, max_size=3),
        c=st.lists(st.sampled_from([0.0, 1e-9, 1e-3, 1.0, -0.7]), min_size=3, max_size=3),
        d=st.lists(st.sampled_from([0.0, 1e-12, 1e-10, 1e-6, 1.0]), min_size=3, max_size=3),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @example(**WEAK)
    def test_validation_and_closed_form_agree(self, lams, c, d, seed):
        t = modal_target(lams, c, d, seed)
        observable, driven = t.pbh_modes.T
        unstable = np.abs(t.eigs) >= 1.0
        report = validate_target(t)
        unobservable = [f for f in report.failures if "unobservable" in f]
        uncontrollable = [w for w in report.warnings if "not controllable" in w]
        assert len(unobservable) == np.count_nonzero(unstable & ~observable)
        assert bool(uncontrollable) == (not driven.all())
        # the fact is -inf exactly when no mode grows, None exactly when a
        # growing mode is undriven, 1.0 exactly when validation reports an
        # unobservable growing mode and none is undriven, and the closed
        # form otherwise
        closed, all_driven = t.critical_closed_form, driven[unstable].all()
        assert (closed == -np.inf) == (not unstable.any())
        assert (closed is None) == (not all_driven)
        assert (closed == 1.0) == (bool(unobservable) and all_driven)
        if unstable.any() and all_driven and not unobservable:
            assert closed == 1.0 - 1.0 / float(np.prod(np.abs(t.eigs[unstable]))) ** 2

    def test_an_undriven_growing_mode_is_undriven_in_any_basis(self):
        # exactly no noise on the growing mode: in a rotated basis eigh
        # rounds that zero eigenvalue of Q to about 1e-16, whose square root
        # sits at the 1e-8 threshold unless it is taken as zero
        for seed in range(200):
            t = modal_target([1.5, 0.5, 0.3], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0], seed)
            assert not t.pbh_modes[np.argmax(np.abs(t.eigs)), 1]
            assert t.critical_closed_form is None
            assert any("not controllable" in w for w in validate_target(t).warnings)

    def test_rounding_in_a_rotated_multiple_of_the_identity_has_rank_zero(self):
        # A = 2 I in a rotated basis, C = 0, Q = 0: A - 2 I is ~1e-16 of
        # rounding, which ranked n against its own largest singular value,
        # so the mode read observable and driven with a closed form of 0.9375
        t = modal_target([2.0, 2.0], [0.0] * 3, [0.0] * 3, seed=0)
        assert np.abs(t.A - 2.0 * np.eye(2)).max() > 0.0
        assert not t.pbh_modes.any()
        assert t.critical_closed_form is None
        assert len([f for f in validate_target(t).failures if "unobservable" in f]) == 2

    def test_weak_noise_on_a_growing_mode_has_the_exact_closed_form(self, pair):
        t = modal_target(**WEAK)
        assert t.pbh_modes.all()
        report = validate_target(t)
        assert report.failures == report.warnings == ()
        assert t.critical_closed_form == 1.0 - 1.0 / 1.3**2
        # ranking Q bisected it instead, with near-critical warnings on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert critical_probability(t) == 1.0 - 1.0 / 1.3**2
            solved = solve_distribution([pair[0], t])
        assert solved.per_target[1].q_critical == 1.0 - 1.0 / 1.3**2

    @settings(max_examples=80, deadline=None)
    @given(
        lams=st.lists(st.one_of(st.floats(-2.5, 2.5), st.sampled_from([-1.0, 1.0])),
                      min_size=1, max_size=3),
        c=st.lists(st.sampled_from([0.0, 1e-3, 1.0, -0.7]), min_size=6, max_size=6),
        d=st.lists(st.sampled_from([0.0, 1e-3, 1.0]), min_size=3, max_size=3),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        p=st.sampled_from([1, 2]),
    )
    @example(lams=[1.0, 0.5], c=[0.0, 1.0] * 3, d=[1.0] * 3, seed=None, p=1)  # undetectable
    @example(lams=[1.0], c=[1.0] * 6, d=[1.0] * 3, seed=None, p=1)  # the scalar a = 1
    @example(lams=[1.0, 0.5], c=[1.0] * 6, d=[0.0, 1.0, 1.0], seed=None, p=1)  # undriven
    @example(lams=[-1.0, 0.3], c=[1.0] * 6, d=[0.0, 1.0, 1.0], seed=7, p=2)  # undriven
    @example(lams=[1.3, 0.5], c=[1.0] * 6, d=[1.0] * 3, seed=3, p=2)  # closed form
    def test_the_fact_is_where_iteration_stops_converging(self, lams, c, d, seed, p):
        # Whenever the spectrum decides existence, a solve diverges at 0
        # iterations exactly at q <= fact and the critical probability is
        # max(fact, 0); and plain iteration from Q stays bounded exactly at
        # q > fact (it settles at q <= fact only if a fixed point exists
        # there). Noise of 1e-10 on a marginal mode would rise below the
        # rounding of a trace of 1e6, so the least noise drawn is 1e-3. The
        # rotation is shared, so a second output stays in the modal basis of
        # the first.
        t = modal_target(lams, c, d, seed)
        if p == 2:
            second = modal_target(lams, c[3:], d, seed)
            t = LtiTarget(A=t.A, C=np.vstack([t.C, second.C]), Q=t.Q, R=np.eye(2))
        fact = t.critical_closed_form
        if fact is None:
            return
        qs = {0.0, 0.5, 1.0} | ({fact, (1.0 + fact) / 2} if 0.0 <= fact <= 1.0 else set())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for q in sorted(qs):
                res = solve_mare(t, q, max_iter=50)
                assert (res.status is MareStatus.DIVERGED) == (q <= fact)
                assert res.iterations == 0 or res.status is not MareStatus.DIVERGED
                traces = plain_traces(t, q)
                if q > fact:
                    assert traces[-1] <= 1e12
                else:  # past the cap, or still rising in the second half
                    assert traces[-1] - traces[len(traces) // 2] > 1e-9 * traces[-1]
            assert critical_probability(t) == max(fact, 0.0)

    @pytest.mark.parametrize("a, c", [(1.0, 1.0), (1.0, 0.0), (2.0, 0.0)],
                             ids=["observable-on-circle", "unobservable-on-circle",
                                  "unobservable-outside"])
    def test_an_undriven_growing_mode_leaves_the_fact_open(self, a, c):
        # no noise reaches the mode at a, so from Q it stays 0 and a fixed
        # point exists even at q = 0, whether or not C sees that mode; the
        # critical probability is the bound 1 - 1/rho^2 when that is 0, and
        # bisected above it (0.75 at rho = 2) otherwise
        t = LtiTarget(A=np.diag([a, 0.5]), C=[[c, 1.0]], Q=np.diag([0.0, 1.0]), R=[[1.0]])
        assert t.critical_closed_form is None
        res = solve_mare(t, 0.0)
        assert res.converged
        np.testing.assert_allclose(res.X, np.diag([0.0, 4.0 / 3.0]), atol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            assert critical_probability(t) == (0.0 if a == 1.0 else 0.75006103515625)
