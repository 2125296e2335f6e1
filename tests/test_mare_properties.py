"""Properties of the fixed-point solver and the critical probability that
the theory guarantees, checked on random targets.

* Delay chains have an exact fixed point (`closed_form_delay_chain`), so the
  solver must reproduce it even just above the critical probability, where
  plain iteration contracts slowly and under-resolves the limit.
* A target whose only unstable eigenvalue lambda is real, observable and
  driven by the noise has critical probability exactly 1 - 1/lambda^2
  (Mo & Sinopoli, IEEE TAC 2012): a fixed point exists above it and the
  iteration diverges below it.
* A single-output target whose unstable modes are observable and driven
  by the noise has critical probability exactly 1 - 1/M(A)^2, with M(A)
  the product of the unstable moduli, whether the modes are real, a
  complex pair or a Jordan block (the dual of Elia, Systems & Control
  Letters 2005). At the value itself no fixed point exists, so the solver
  is probed a little above and below it. Below it the solver returns the
  closed form's verdict without iterating, so on fixed targets of these
  families the map itself is iterated there, and its trace must blow up.
* Warm and cold starts agree: the fixed point at a smaller q' is a
  super-solution at q (g_q is non-increasing in q), and solving from it
  reaches the same closed-form fixed point as solving from Q.
* The map g_q itself is monotone: X1 <= X2 implies g_q(X1) <= g_q(X2),
  and raising q can only lower g_q(X) (Sinopoli et al., IEEE TAC 2004).
* The Riccati update of a stack of covariances treats each matrix alone:
  every slice equals the update of that one matrix bit for bit, whatever
  the stack size (the kernel multiplies the whole stack at once, and BLAS
  may take other code paths as the row count grows), and so does the
  weighted cost of every slice. A stack that mixes the targets of one
  dimension class, with per-row systems and batched products, gives each
  target's rows the bits of that target's own update.
"""
import numpy as np
import pytest
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
from sensorsched.mare import _CERTIFY_RTOL, TRACE_DIVERGENCE_CAP, _riccati_step, _system_rows
from sensorsched.model import _weighted_trace
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
# a fixed point of trace 2.3e12 at q^c + 1e-2, above TRACE_DIVERGENCE_CAP
@example(seed=1_869_544_603)
def test_single_unstable_mode_has_analytic_critical_probability(seed):
    target, lam = single_unstable_mode_target(seed)
    shifted = target.A - lam * np.eye(target.n)
    assert np.linalg.matrix_rank(np.vstack([shifted, target.C])) == target.n
    qc = critical_probability(target)
    # lam is the exact eigenvalue; qc comes from the computed one
    assert abs(qc - (1.0 - 1.0 / lam**2)) <= 1e-12
    assert solve_mare(target, qc + 1e-2).converged
    assert solve_mare(target, qc - 1e-2).status is MareStatus.DIVERGED
    at_qc = solve_mare(target, qc)
    assert at_qc.status is MareStatus.DIVERGED and at_qc.iterations == 0


def single_output_target(seed: int, kind: str) -> tuple[LtiTarget, float]:
    """A random single-output target with one to three unstable modes, and
    1 - 1/M^2 from its exact unstable moduli.

    `kind` picks the unstable part: one to three real modes, a complex
    pair, or a 2x2 Jordan block; the last two may get a real unstable mode
    beside them. Half the targets also get a stable mode. A = U T U^T with
    U orthogonal and T block diagonal with those blocks, and Q is positive
    definite. Each unstable block draws its modulus from its own one of
    three disjoint ranges, and in the basis of T every entry of C has
    modulus at least 0.5, so each mode is observed with a margin: one
    output cannot tell nearly equal modes apart, and a mode observed with a
    margin near 0 has a fixed point so large that the solve above q^c
    needs a long run of plain steps before a Newton step can be certified.
    """
    rng = np.random.default_rng(seed)
    floors = rng.permutation([1.05, 1.2, 1.35])
    moduli = [rng.uniform(f, f + 0.1) for f in floors]
    if kind == "real":
        moduli = moduli[: int(rng.integers(1, 4))]
        blocks = [np.array([[m]]) for m in moduli]
    else:
        r, extra = moduli[:2]
        if kind == "complex":
            angle = rng.uniform(0.3, 2.8)
            c, s = np.cos(angle), np.sin(angle)
            blocks = [r * np.array([[c, -s], [s, c]])]
        else:
            blocks = [np.array([[r, 1.0], [0.0, r]])]
        moduli = [r, r]
        if rng.random() < 0.5:
            moduli.append(extra)
            blocks.append(np.array([[extra]]))
    if rng.random() < 0.5:
        blocks.append(np.array([[rng.uniform(-0.9, 0.9)]]))
    n = sum(b.shape[0] for b in blocks)
    T = np.zeros((n, n))
    i = 0
    for b in blocks:
        k = b.shape[0]
        T[i : i + k, i : i + k] = b * rng.choice([-1.0, 1.0])
        i += k
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    C = rng.uniform(0.5, 1.5, size=(1, n)) * rng.choice([-1.0, 1.0], size=(1, n))
    G = rng.normal(size=(n, n))
    target = LtiTarget(
        A=U @ T @ U.T,
        C=C @ U.T,
        Q=G @ G.T + 0.1 * np.eye(n),
        R=[[rng.uniform(0.2, 2.0)]],
    )
    return target, 1.0 - 1.0 / np.prod(moduli) ** 2


@settings(max_examples=20, deadline=None)
@given(seed=seeds, kind=st.sampled_from(["real", "complex", "jordan"]))
def test_single_output_critical_probability_is_closed_form(seed, kind):
    target, exact = single_output_target(seed, kind)
    qc = critical_probability(target)
    assert abs(qc - exact) <= 1e-12
    # a small budget keeps a wrong verdict cheap; over 900 drawn targets
    # both sides settled within 2 200 iterations
    assert solve_mare(target, qc + 1e-2, max_iter=5_000).converged
    assert solve_mare(target, qc - 1e-2, max_iter=5_000).status is MareStatus.DIVERGED
    at_qc = solve_mare(target, qc, max_iter=5_000)
    assert at_qc.status is MareStatus.DIVERGED and at_qc.iterations == 0


def fixed_target(family: str, key) -> tuple[LtiTarget, float]:
    """A target of one of the families above, or a scalar plant a (key),
    with its critical probability from the exact spectrum."""
    if family == "scalar":
        return LtiTarget(A=[[key]], C=[[1.0]], Q=[[1.0]], R=[[1.0]]), 1.0 - 1.0 / key**2
    if family == "mode":
        target, lam = single_unstable_mode_target(key)
        return target, 1.0 - 1.0 / lam**2
    return single_output_target(key, family)


@pytest.mark.parametrize(
    "family,key",
    [("scalar", 1.01), ("scalar", 2.0), ("mode", 0), ("mode", 2), ("mode", 1_869_544_603),
     ("real", 1), ("complex", 1), ("jordan", 0)],
)
def test_iteration_diverges_below_the_closed_form(family, key):
    # The solver returns the closed form's verdict below q^c without
    # iterating; the map itself, iterated from Q, must agree: its trace
    # passes 1e12 within the budget (at most 3 200 steps on these targets).
    # A closed form below the exact q^c would leave the solve iterating to
    # its budget instead.
    target, exact = fixed_target(family, key)
    q = exact - 1e-2
    assert solve_mare(target, q, max_iter=10_000).status is MareStatus.DIVERGED
    X = target.Q
    for _ in range(10_000):
        X = g_q(target, q, X, validate=False)
        if np.trace(X) > TRACE_DIVERGENCE_CAP:
            break
    else:
        pytest.fail(f"trace {np.trace(X):.3g} after 10 000 steps at q^c - 1e-2")


@settings(max_examples=5, deadline=None)
@given(radius=st.floats(1.05, 1.4), angle=st.floats(0.4, 2.7))
def test_unstable_rotation_has_closed_form_critical_probability(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    A = radius * np.array([[c, -s], [s, c]])
    target = LtiTarget(A=A, C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]])
    # 1 - 1/r^4, not the lower bound 1 - 1/rho^2 = 1 - 1/r^2
    assert abs(critical_probability(target) - (1.0 - 1.0 / radius**4)) <= 1e-12


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


def planes(P: np.ndarray) -> np.ndarray:
    """Rows [k, n, n] as planes [n, n, k], rows innermost and contiguous."""
    return np.ascontiguousarray(P.transpose(1, 2, 0))


def own_cost(target: LtiTarget, X: np.ndarray) -> float:
    """numpy's own weighted trace of one matrix."""
    if target.cost_weights is None:
        return X.trace()
    return (np.diagonal(X) * target.cost_weights).sum()


def kernel_q(kind: str, rng, stack: int) -> float | np.ndarray:
    if kind == "all":
        return np.ones(stack, dtype=bool)
    if kind == "none":
        return np.zeros(stack, dtype=bool)
    if kind == "mixed":
        return rng.integers(2, size=stack).astype(bool)
    if kind == "float":
        return rng.uniform(size=stack)
    return float(kind)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    stack=st.one_of(st.sampled_from([1, 2, 127, 1000, 2048]), st.integers(1, 2048)),
    n=st.integers(1, 9),
    p=st.integers(1, 2),
    kind=st.sampled_from(["all", "none", "mixed", "float", "0", "1"]),
)
# the stack sizes of the Monte Carlo runs, the window's, and the largest size drawn
@example(seed=1, stack=200, n=3, p=1, kind="mixed")
@example(seed=2, stack=1000, n=2, p=1, kind="mixed")
@example(seed=4, stack=128, n=2, p=1, kind="1")
@example(seed=3, stack=2048, n=4, p=2, kind="float")
@example(seed=5, stack=127, n=9, p=2, kind="mixed")
def test_stacked_step_equals_step_per_slice(seed, stack, n, p, kind):
    """Each plane of a planes call has the bits of its own 2-D call and of
    its plane in a call on per-row systems, and is bitwise symmetric; its
    cost, scored in the stack, has the bits of numpy's own sum over that
    plane alone, and so does the class stack's sum with per-row weights,
    with and without cost weights (n >= 8 sums pairwise)."""
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
    q = kernel_q(kind, rng, stack)
    out = _riccati_step(target, planes(P), q)
    assert out.shape == (n, n, stack)
    assert np.array_equal(out, out.swapaxes(0, 1))
    assert np.array_equal(out, _riccati_step(_system_rows([target] * stack), planes(P), q))
    for b in range(stack):
        if isinstance(q, float):
            assert np.array_equal(out[..., b], g_q(target, q, P[b]))
        elif q.dtype == bool:
            assert np.array_equal(out[..., b], covariance_step(target, P[b], q[b]))
        else:
            assert np.array_equal(out[..., b], g_q(target, q[b], P[b]))
    for weights in (None, rng.uniform(0.1, 2.0, size=n)):
        scored = LtiTarget(A=target.A, C=target.C, Q=target.Q, R=target.R, cost_weights=weights)
        costs = scored.cost_of(out)
        assert all(costs[b] == own_cost(scored, out[..., b]) for b in range(stack))
        per_row = np.ones((n, stack)) if weights is None else np.repeat(weights[:, None], stack, 1)
        assert np.array_equal(_weighted_trace(out, per_row), costs)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 130, 255, 256, 257, 300])
def test_plane_costs_sum_in_numpys_order(n):
    """Scoring planes reproduces numpy's pairwise summation of one
    diagonal, across its block and halving thresholds, and so does scoring
    one matrix, C- or F-ordered, as the optimizer scores its fixed points."""
    rng = np.random.default_rng(n)
    target = LtiTarget(A=np.eye(n), C=np.ones((1, n)), Q=np.eye(n), R=[[1.0]])
    weighted = LtiTarget(A=target.A, C=target.C, Q=target.Q, R=target.R,
                         cost_weights=rng.uniform(0.1, 2.0, size=n))
    P = rng.lognormal(sigma=3.0, size=(n, n, 5))
    for t in (target, weighted):
        costs = t.cost_of(P)
        assert all(costs[b] == own_cost(t, P[..., b]) for b in range(5))
        for X in (np.ascontiguousarray(P[..., b]) for b in range(5)):
            assert t.cost_of(X) == own_cost(t, X) == t.cost_of(np.asfortranarray(X))


@pytest.mark.parametrize("weighted", [False, True])
def test_cost_of_ignores_the_planes_layout(weighted):
    """Planes that are a view of rows, not contiguous, are scored with the
    bits of each matrix alone; numpy's trace over the stack axes sums
    their diagonals in another order once n >= 8."""
    rng = np.random.default_rng(9)
    t = LtiTarget(A=np.eye(9), C=np.ones((1, 9)), Q=np.eye(9), R=[[1.0]],
                  cost_weights=rng.uniform(0.1, 2.0, size=9) if weighted else None)
    rows = rng.lognormal(sigma=3.0, size=(50, 9, 9))
    costs = t.cost_of(rows.transpose(1, 2, 0))
    assert all(costs[b] == own_cost(t, rows[b]) for b in range(50))


def test_planes_rely_on_bitwise_symmetry():
    """An asymmetric P gets the textbook update in both layouts, with other
    rounding; the planes reproduce the rows' bits for bitwise symmetric P,
    which every kernel output is, so chained steps stay equal."""
    rng = np.random.default_rng(11)
    target = LtiTarget(A=rng.normal(size=(3, 3)), C=rng.normal(size=(1, 3)),
                       Q=random_psd(rng, 3) + np.eye(3), R=[[0.5]])
    system = _system_rows([target] * 64)
    P = planes(rng.normal(size=(64, 3, 3)) + 3 * np.eye(3))
    rows = _riccati_step(system, P, 1.0)
    out = _riccati_step(target, P, 1.0)
    assert np.abs(out - rows).max() <= 1e-12 * np.abs(rows).max()
    for _ in range(3):
        assert np.array_equal(rows, rows.swapaxes(0, 1))
        out = _riccati_step(target, rows, 1.0)
        rows = _riccati_step(system, rows, 1.0)
        assert np.array_equal(out, rows)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    stack=st.integers(1, 2048),
    n_targets=st.integers(1, 20),
    n=st.integers(1, 4),
    p=st.integers(1, 2),
    q=st.sampled_from(["0", "1", "mask"]),
)
# scale20's class (20 targets, about 58 rows a step), the pair's, the largest
@example(seed=1, stack=58, n_targets=20, n=3, p=1, q="mask")
@example(seed=2, stack=256, n_targets=2, n=2, p=1, q="mask")
@example(seed=3, stack=2048, n_targets=5, n=4, p=2, q="mask")
def test_per_row_systems_equal_each_targets_step(seed, stack, n_targets, n, p, q):
    """A stack mixing the targets of one dimension class, each row with its
    own system, gets for every target's rows the bits of that target's own
    call: on its rows with the same scalar, or with its slice of the mask,
    or with the scalar the mask amounts to when all its rows agree."""
    rng = np.random.default_rng(seed)
    targets = [
        LtiTarget(
            A=rng.normal(size=(n, n)),
            C=rng.normal(size=(p, n)),
            Q=random_psd(rng, n) + 0.1 * np.eye(n),
            R=random_psd(rng, p) + 0.1 * np.eye(p),
        )
        for _ in range(n_targets)
    ]
    tid = rng.integers(n_targets, size=stack)
    G = rng.normal(size=(stack, n, n))
    P = G @ G.swapaxes(1, 2)
    if q == "mask":
        # some targets all observed, some all unobserved, the rest mixed
        kind = rng.integers(3, size=n_targets)[tid]
        observed = np.where(kind == 2, rng.integers(2, size=stack), kind).astype(bool)
        q_arg = observed[:, None, None]
    else:
        q_arg = float(q)
    out = _riccati_step(_system_rows([targets[t] for t in tid]), planes(P), q_arg)
    for t, target in enumerate(targets):
        rows = np.flatnonzero(tid == t)
        if not len(rows):
            continue
        if q != "mask":
            own = [q_arg]
        elif observed[rows].all() or not observed[rows].any():
            own = [observed[rows][:, None, None], float(observed[rows[0]])]
        else:
            own = [observed[rows][:, None, None]]
        for q_t in own:
            own_step = _riccati_step(target, planes(P[rows]), q_t)
            assert np.array_equal(out[..., rows], own_step)
