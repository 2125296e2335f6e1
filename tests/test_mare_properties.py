"""Properties of the fixed-point solver and the critical probability that
the theory guarantees, checked on random targets.

* Delay chains have an exact fixed point (`closed_form_delay_chain`), so the
  solver must reproduce it even just above the critical probability, where
  plain iteration contracts slowly and under-resolves the limit.
* A target whose only unstable eigenvalue lambda is real, observable and
  driven by the noise has critical probability exactly 1 - 1/lambda^2
  (Mo & Sinopoli, IEEE TAC 2012): a fixed point exists above it and the
  iteration diverges below it.
* Every other unstable target is bisected, from the lower bound
  1 - 1/rho(A)^2 (Sinopoli et al., IEEE TAC 2004), to a probability at
  which the solver converges.
* Warm and cold starts agree: the fixed point at a smaller q' is a
  super-solution at q (g_q is non-increasing in q), and solving from it
  reaches the same closed-form fixed point as solving from Q.
* The map g_q itself is monotone: X1 <= X2 implies g_q(X1) <= g_q(X2),
  and raising q can only lower g_q(X) (Sinopoli et al., IEEE TAC 2004).
* The Riccati update of a stack of covariances treats each matrix alone:
  every slice equals the update of that one matrix bit for bit, whatever
  the stack size (the kernel multiplies the whole stack at once, and BLAS
  may take other code paths as the row count grows).
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensorsched import (
    DelayChainSpec,
    LtiTarget,
    MareStatus,
    closed_form_delay_chain,
    critical_probability,
    expand_delay_chain,
    g_q,
    solve_mare,
)
from sensorsched.mare import _CERTIFY_RTOL, _riccati_step
from sensorsched.simulate import covariance_step

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.2, 2.5),
    negative=st.booleans(),
    Q=st.floats(0.1, 10.0),
    R=st.floats(0.1, 10.0),
    d=st.integers(0, 3),
    log_gap=st.floats(-4.0, -2.0),
)
def test_near_critical_solve_matches_closed_form(a, negative, Q, R, d, log_gap):
    spec = DelayChainSpec(a=-a if negative else a, Q=Q, R=R, d=d)
    q = max(0.0, 1.0 - 1.0 / a**2) + 10.0**log_gap
    exact = closed_form_delay_chain(spec, q)
    res = solve_mare(expand_delay_chain(spec), q)
    assert res.converged
    assert np.abs(res.X - exact).max() <= 1e-9 * np.abs(exact).max()


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.2, 2.5),
    negative=st.booleans(),
    Q=st.floats(0.1, 10.0),
    R=st.floats(0.1, 10.0),
    d=st.integers(0, 3),
    log_gap=st.floats(-4.0, -1.0),
    ratio=st.floats(1.5, 100.0),
)
def test_warm_start_cold_start_and_closed_form_agree(a, negative, Q, R, d, log_gap, ratio):
    spec = DelayChainSpec(a=-a if negative else a, Q=Q, R=R, d=d)
    target = expand_delay_chain(spec)
    qc = max(0.0, 1.0 - 1.0 / a**2)
    q_below = qc + 10.0**log_gap
    q = min(qc + 10.0**log_gap * ratio, 1.0)
    below = solve_mare(target, q_below)
    assert below.converged
    scale = max(1.0, float(np.abs(below.X).max()))
    assert np.linalg.eigvalsh(g_q(target, q, below.X) - below.X)[-1] <= _CERTIFY_RTOL * scale
    exact = closed_form_delay_chain(spec, q)
    for res in (solve_mare(target, q, x0=below.X), solve_mare(target, q)):
        assert res.converged
        assert np.abs(res.X - exact).max() <= 1e-6 * np.abs(exact).max()


def single_unstable_mode_target(seed: int) -> tuple[LtiTarget, float]:
    """A random 2x2 or 3x3 target with one real unstable eigenvalue.

    A = U T U^T with U orthogonal and T upper triangular, so the diagonal
    of T is the spectrum; Q is positive definite and a random C observes
    the unstable mode almost surely.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    lam = rng.uniform(1.05, 3.0) * rng.choice([-1.0, 1.0])
    T = np.triu(rng.normal(scale=0.5, size=(n, n)), 1)
    T[np.diag_indices(n)] = np.r_[lam, rng.uniform(-0.9, 0.9, size=n - 1)]
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    G = rng.normal(size=(n, n))
    target = LtiTarget(
        A=U @ T @ U.T,
        C=rng.normal(size=(1, n)),
        Q=G @ G.T + 0.1 * np.eye(n),
        R=[[rng.uniform(0.2, 2.0)]],
    )
    return target, lam


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_single_unstable_mode_has_analytic_critical_probability(seed):
    target, lam = single_unstable_mode_target(seed)
    shifted = target.A - lam * np.eye(target.n)
    assert np.linalg.matrix_rank(np.vstack([shifted, target.C])) == target.n
    qc = critical_probability(target)
    # lam is the exact eigenvalue; qc comes from the computed one
    assert abs(qc - (1.0 - 1.0 / lam**2)) <= 1e-12
    assert solve_mare(target, qc + 1e-2).converged
    assert solve_mare(target, qc - 1e-2).status is MareStatus.DIVERGED


@settings(max_examples=5, deadline=None)
@given(radius=st.floats(1.05, 1.4), angle=st.floats(0.4, 2.7))
def test_unstable_rotation_is_bisected(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    A = radius * np.array([[c, -s], [s, c]])
    target = LtiTarget(A=A, C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]])
    # a complex unstable pair lies outside the analytic branch; a coarse
    # width and budget keep the probes just below the frontier cheap
    qc = critical_probability(target, tol=1e-2, mare_max_iter=5_000)
    assert 1.0 - 1.0 / radius**2 <= qc <= 1.0
    assert solve_mare(target, qc).converged


def random_psd(rng, n: int) -> np.ndarray:
    G = rng.normal(size=(n, n))
    return G @ G.T


@settings(max_examples=50, deadline=None)
@given(seed=seeds, n=st.integers(1, 3), q1=st.floats(0.0, 1.0), q2=st.floats(0.0, 1.0))
def test_riccati_map_is_monotone(seed, n, q1, q2):
    # g_q is order-preserving in X and non-increasing in q on the PSD cone
    rng = np.random.default_rng(seed)
    target = LtiTarget(
        A=rng.normal(size=(n, n)),
        C=rng.normal(size=(1, n)),
        Q=random_psd(rng, n),
        R=[[rng.uniform(0.1, 2.0)]],
    )
    X1 = random_psd(rng, n)
    X2 = X1 + random_psd(rng, n)
    lo, hi = sorted((q1, q2))

    def least_eig(M, scale):
        return np.linalg.eigvalsh(M)[0] / max(1.0, float(np.abs(scale).max()))

    G1, G2 = g_q(target, lo, X1), g_q(target, lo, X2)
    assert least_eig(G2 - G1, G2) >= -1e-9
    assert least_eig(G1 - g_q(target, hi, X1), G1) >= -1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    stack=st.integers(1, 2048),
    n=st.integers(1, 4),
    p=st.integers(1, 2),
    fractional=st.booleans(),
)
# the stack sizes of the Monte Carlo runs, and the largest size drawn
@example(seed=1, stack=200, n=3, p=1, fractional=False)
@example(seed=2, stack=1000, n=2, p=1, fractional=False)
@example(seed=3, stack=2048, n=4, p=2, fractional=True)
def test_stacked_step_equals_step_per_slice(seed, stack, n, p, fractional):
    rng = np.random.default_rng(seed)
    target = LtiTarget(
        A=rng.normal(size=(n, n)),
        C=rng.normal(size=(p, n)),
        Q=random_psd(rng, n) + 0.1 * np.eye(n),
        R=random_psd(rng, p) + 0.1 * np.eye(p),
    )
    G = rng.normal(size=(stack, n, n))
    P = G @ G.swapaxes(1, 2)
    P = (P + P.swapaxes(1, 2)) / 2  # exactly symmetric, so g_q's check keeps every bit
    if fractional:
        q = rng.uniform(size=stack)
        out = _riccati_step(target, P, q[:, None, None])
        for b in range(stack):
            assert np.array_equal(out[b], g_q(target, q[b], P[b]))
    else:
        observed = rng.integers(2, size=stack).astype(bool)
        out = _riccati_step(target, P, observed[:, None, None])
        unobserved = _riccati_step(target, P, 0.0)
        for b in range(stack):
            assert np.array_equal(out[b], covariance_step(target, P[b], observed[b]))
            assert np.array_equal(unobserved[b], covariance_step(target, P[b], False))
