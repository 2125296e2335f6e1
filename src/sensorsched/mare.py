"""Riccati fixed points under intermittent observation.

When a target is observed in any sampling period independently with
probability q, the expected one-step-ahead error covariance of its Kalman
filter is bounded by the fixed point of the modified Riccati map

    g_q(X) = A X A^T + Q - q * A X C^T (C X C^T + R)^(-1) C X A^T,

the ordinary Riccati update with the correction term scaled by q. This
module holds the one implementation of that update, which the filter and
the simulations share. It takes a stack of covariances as planes, rows
innermost, and multiplies a stack of one target by [A; C] in two matrix
products, which keeps Monte Carlo over thousands of runs cheap; a stack
may also mix targets of one dimension class, each row with its own A, C,
Q and R. Scalar measurements, the common case, get the gain by division.
A slice of a stacked update equals the update of that one matrix bit for
bit. The module also computes g_q's fixed points, the exact fixed point
for scalar plants with delayed measurements, and the critical observation
probability below which no fixed point exists.

Fixed points are found by iterating the map, taking a Newton step in
place of the plain step whenever the Newton iterate is certified: g_q is
monotone and concave on the positive semidefinite cone, so a positive
semidefinite Y with g_q(Y) <= Y proves that a fixed point exists below Y,
and Newton steps from such a Y descend to it quadratically. Every solve
stops at one step tolerance, 1e-9 relative to the iterate. Whether a
fixed point exists at all is a fact of the target's spectrum wherever
that decides it (`LtiTarget.critical_closed_form`, computed once; Sinopoli
et al., IEEE TAC 2004): at or below it a solve returns DIVERGED without
iterating, and the critical probability is that fact, or 0 for a
strictly stable target. Targets the fact leaves open (an undriven mode,
or several unstable ones) are iterated until their trace passes a cap,
and their critical probability is the lower bound 1 - 1/rho(A)^2 when
that is 0, else bisected from it to the feasible end of the bracket, so
their value errs upward.

Covariance matrices are plain numpy arrays; `model.check_covariance`,
re-exported here, enforces their invariants where inputs enter the public
API. Solves read A's spectrum from the target, which computes it once.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .model import DelayChainSpec, LtiTarget, check_covariance, expand_delay_chain, symmetrize

__all__ = [
    "MareStatus",
    "MareResult",
    "ConditioningWarning",
    "symmetrize",
    "check_covariance",
    "g_q",
    "solve_mare",
    "closed_form_delay_chain",
    "critical_probability",
    "TRACE_DIVERGENCE_CAP",
]

# For a target whose spectrum leaves existence open, a trajectory whose
# trace passes this cap is declared diverged. This is a heuristic, not a
# proof: a fixed point with a larger trace would be reported as diverged.
# Every other target is decided by its fact, and the cap then bounds only
# the certified Newton candidates.
TRACE_DIVERGENCE_CAP = 1e12
# A Newton iterate Y is accepted when its eigenvalues, and those of
# g_q(Y) - Y, clear 0 from the certified side by at most this much
# relative to the largest entry of Y (floating-point slack).
_CERTIFY_RTOL = 1e-10
# A solve converges when ||X_next - X||_F <= _STEP_TOL * (1 + ||X||_F).
_STEP_TOL = 1e-9


class ConditioningWarning(UserWarning):
    """Emitted when a solve runs close enough to criticality that its fixed
    point is large."""


class MareStatus(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True, eq=False)
class MareResult:
    """Outcome of a fixed-point solve.

    X is the fixed point when converged, the last iterate when the
    iteration budget ran out, and None on DIVERGED.
    `residual` is ||g_q(X) - X||_F at exit (inf on divergence).
    """

    status: MareStatus
    X: np.ndarray | None
    iterations: int
    residual: float

    @property
    def converged(self) -> bool:
        return self.status is MareStatus.CONVERGED


def g_q(target: LtiTarget, q: float, X: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """One application of the modified Riccati map.

    Parameters
    ----------
    target : LtiTarget
        Supplies A, C, Q, R.
    q : float
        Observation probability, in [0, 1]. q = 1 is the ordinary Riccati
        update, q = 0 the open-loop (Lyapunov) update.
    X : ndarray
        Current covariance; validated unless `validate=False` (hot loops).

    Returns the symmetrized image, which is again positive semidefinite:
    the map is a convex combination of the open-loop update (q = 0 part)
    and the full Riccati update, both of which preserve the cone.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    if validate:
        X = check_covariance(X)
    return _riccati_step(target, X, q)


def _riccati_step(
    systems: LtiTarget | tuple[np.ndarray, np.ndarray, np.ndarray],
    P: np.ndarray,
    q: float | np.ndarray,
) -> np.ndarray:
    """sym(A P A^T + Q - q * A P C^T (C P C^T + R)^(-1) C P A^T), unchecked.

    The one Riccati update of the package: g_q, the filter's covariance
    step and the batched simulations all call it. P holds planes
    [n, n, *rows], the rows innermost and contiguous; a 2-D P [n, n] is the
    one-row case. `systems` is one LtiTarget, or k systems of one dimension
    class (n, p) as `_system_rows` stacks them. P's rows, in C order, form
    k equal blocks, and system j advances block j: one target's stack is
    the case k = 1, a class stack [n, n, k, rows] gives each of k targets
    the same number of rows, and a stack whose rows mix the targets of a
    class has one system per row, blocks of one row.

    q is a scalar or holds one value per matrix of the stack (any shape of
    that size). A scalar q = 0 returns the open-loop (Lyapunov) update
    without forming the gain. A boolean q is a mask of the observed
    matrices: only those form the gain, as in their own call at q = 1, and
    the others get the bits of q = 0, so an unobserved matrix whose
    innovation covariance is singular never enters a solve. A mask on which
    all matrices agree is the scalar it means: all True is q = 1, all False
    q = 0, open loop with no gain. A float array q scales the gain of each
    matrix.

    With B = [A; C] of a system (A alone at q = 0), a block's planes are
    one matrix [n, (n, rows)]: B P is one GEMM, giving [c, (i, rows)], and
    a copy of whole row-blocks to [i, (c, rows)] and one more GEMM give
    Y = B P^T B^T, whose blocks are A P A^T, A P C^T, C P A^T and C P C^T
    for symmetric P. One block (k = 1) takes these two GEMMs on the stack
    as it is. Several blocks take them as one batched matmul, each with
    the shape, and so the bits, of the block's own call: P is copied to
    that layout first and Y back to planes [m, m, k * rows] after, so
    blocks of one row (per-row systems) make two BLAS calls per row, and
    each block's Q and R are repeated to its rows.

    Every other step (+ Q, + R, the gain, the masked subtract on the seen
    columns, symmetrize) runs once on length-rows vectors over all blocks;
    a mask's seen columns are gathered for the gain and scattered back.
    For a scalar measurement (p = 1) the innovation covariance S is 1x1
    and the gain a division; for p > 1 Y is copied to rows for
    `np.linalg.solve`.

    Each entry of a product depends on its own matrix alone, so a slice of
    a stacked call equals the call on that slice bit for bit, whatever the
    blocks, as long as BLAS rounds a matrix the same whatever the row count
    and the call, and P is bitwise symmetric, as every P the package passes
    is (a symmetrize output, a validated covariance or a target's Q); the
    property tests check this for stacks of up to 2048 matrices. An
    asymmetric P still gets the textbook update of P, rounded otherwise.
    """
    mask = q.reshape(-1) if isinstance(q, np.ndarray) and q.dtype == bool else None
    if mask is not None and (seen := np.count_nonzero(mask)) in (0, mask.size):
        q, mask = float(seen > 0), None
    open_loop = not isinstance(q, np.ndarray) and q == 0
    if isinstance(systems, LtiTarget):  # one block, B = A or [A; C]
        k, B, Q, R = 1, systems.A if open_loop else systems.AC_T.T, systems.Q, systems.R
    else:  # B = [A; C] of each block, [k, m, n]
        Bt, Q, R = systems
        k, B = len(Bt), (Bt[..., :len(Q)] if open_loop else Bt).swapaxes(1, 2)
    n, m = len(Q), B.shape[-2]
    if k == 1:  # the stack as it is, planes [m, m, *rows]
        PB = (B @ P.reshape(n, -1)).reshape(m, n, -1).swapaxes(0, 1).reshape(n, -1)
        Y = (B @ PB).reshape(m, m, *P.shape[2:])
        Q = Q.reshape(n, n, *(1,) * (P.ndim - 2))
    else:  # one batched matmul over the blocks, planes [m, m, k * b]
        b = P.size // (n * n * k)  # block j's planes are one matrix [n, (n, b)]
        PB = B @ P.reshape(n, n, k, b).transpose(2, 0, 1, 3).reshape(k, n, -1)
        Y = B @ PB.reshape(k, m, n, b).swapaxes(1, 2).reshape(k, n, -1)
        Y = np.ascontiguousarray(Y.reshape(k, m, m, b).transpose(1, 2, 0, 3)).reshape(m, m, -1)
        if b > 1:  # each block's Q and R, one per row
            Q, R = np.repeat(Q, b, axis=-1), np.repeat(R, b, axis=-1)
    out = Y[:n, :n] + Q
    if mask is not None:
        seen, flat = mask.nonzero()[0], out.reshape(n * n, -1)
        gained = flat.take(seen, axis=1) - _correction(
            Y.reshape(m, m, -1).take(seen, axis=-1), R if k == 1 else R.take(seen, axis=-1),
            n).reshape(n * n, -1)
        for entry, new in zip(flat, gained):  # n^2 1-D stores: faster than one 2-D on long masks
            entry[seen] = new
    elif not open_loop:
        q = q.reshape(Y.shape[2:]) if isinstance(q, np.ndarray) else q
        out = out - q * _correction(Y, R, n)
    return symmetrize(out if k == 1 else out.reshape(P.shape))


def _correction(Y: np.ndarray, R: np.ndarray, n: int) -> np.ndarray:
    """Planes of (A P C^T) S^-1 (C P A^T) from the planes Y [m, m, *rows],
    with S = C P C^T + R and R one [p, p] or planes [p, p, rows]."""
    if len(R) == 1:  # M = Y[:n, n:], N = Y[n:, :n]: [i, j] = (M[i] / S) N[j]
        return Y[n:, :n] * (Y[:n, n:] / (Y[n:, n:] + R))
    rows = np.ascontiguousarray(Y.reshape(*Y.shape[:2], -1).T)  # each plane's transpose
    S = rows[:, n:, n:] + R.reshape(*R.shape[:2], -1).transpose(2, 0, 1)
    gain = rows[:, :n, n:] @ np.linalg.solve(S, rows[:, n:, :n])
    return gain.T.reshape(n, n, *Y.shape[2:])


def _system_rows(targets: list[LtiTarget]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[A; C]^T of targets of one dimension class stacked [k, n, n + p], and
    their Q and R stacked as planes [n, n, k] and [p, p, k]: the systems
    that `_riccati_step` takes, one per block of rows."""
    return (
        np.stack([t.AC_T for t in targets]),
        np.stack([t.Q for t in targets], axis=-1),
        np.stack([t.R for t in targets], axis=-1),
    )


def _kron_self(M: np.ndarray) -> np.ndarray:
    """M kron M, so that (M kron M) vec(H) = vec(M H M^T) for row-major vec."""
    n = M.shape[0]
    return (M[:, None, :, None] * M[None, :, None, :]).reshape(n * n, n * n)


def _linearization(
    target: LtiTarget, q: float, X: np.ndarray, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I - L_X as an n^2 x n^2 matrix, with the gain K and S it is formed from.

    The derivative of g_q at X is L_X: H -> (1-q) A H A^T + q Abar H Abar^T
    with Abar = A - K C, K = A X C^T S^(-1) and S = C X C^T + R; `base` is
    I - (1-q) A kron A. Raises LinAlgError when S is singular.
    """
    S = target.C @ X @ target.C.T + target.R
    K = np.linalg.solve(S, target.C @ X @ target.A.T).T
    return base - q * _kron_self(target.A - K @ target.C), K, S


def _fixed_point_slope(target: LtiTarget, q: float, X: np.ndarray) -> np.ndarray:
    """dX/dq at the fixed point X of g_q.

    Differentiating X = g_q(X) in q (implicit function theorem) gives
    (I - L_X) X' = -K S K^T, the q-derivative of g_q at fixed X.
    """
    n = target.n
    M, K, S = _linearization(target, q, X, np.eye(n * n) - (1.0 - q) * _kron_self(target.A))
    return symmetrize(np.linalg.solve(M, -(K @ S @ K.T).ravel()).reshape(n, n))


def _newton_step(
    target: LtiTarget, q: float, base: np.ndarray, X: np.ndarray, G: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Certified Newton iterate from X, where G = g_q(X), with its image.

    The step solves (I - L_X) vec(H) = vec(G - X) (`_linearization`).
    Returns (Y, g_q(Y)) when Y = X + H is positive semidefinite with
    g_q(Y) <= Y, else None.
    """
    n = target.n
    try:
        H = np.linalg.solve(_linearization(target, q, X, base)[0], (G - X).ravel())
        Y = symmetrize(X + H.reshape(n, n))
        scale = float(np.abs(Y).max())
        # keeps trace(Y) under the divergence cap; also rejects inf and nan
        if not scale <= TRACE_DIVERGENCE_CAP / n:
            return None
        slack = _CERTIFY_RTOL * max(1.0, scale)
        if np.linalg.eigvalsh(Y)[0] < -slack:
            return None
        GY = g_q(target, q, Y, validate=False)
        if np.linalg.eigvalsh(GY - Y)[-1] > slack:
            return None
    except np.linalg.LinAlgError:
        return None
    return Y, GY


def solve_mare(
    target: LtiTarget,
    q: float,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> MareResult:
    """Fixed point of g_q by certified Newton steps and direct iteration.

    Starts from X = Q (or `x0`). Each iteration takes the Newton step when
    its iterate Y is positive semidefinite with g_q(Y) <= Y (a certificate
    that a fixed point exists below Y, which the Newton steps then reach
    quadratically), and the plain step X <- g_q(X) otherwise. Below
    q = 1 - 1/rho(A)^2 no Newton step is tried, since for positive
    definite Q no certificate exists there. The solve stops when the step
    ||X_next - X||_F falls below 1e-9 * (1 + ||X||_F).
    Existence is the target's own fact when its spectrum decides it
    (`LtiTarget.critical_closed_form`): at q at or below that fact no fixed
    point exists and DIVERGED returns at 0 iterations, and above it one
    exists, so only `max_iter` ends the loop. A target the fact leaves open
    is declared diverged when its trace passes TRACE_DIVERGENCE_CAP.
    Exceeding `max_iter` returns MAX_ITERATIONS with the last iterate;
    callers that need a certificate treat that as "no fixed point found",
    never as convergence. A ConditioningWarning fires within 1e-3 above the
    fact, or above 1 - 1/rho(A)^2 when the fact is None.

    The iteration converges from any positive semidefinite start when a
    fixed point exists, so x0 only affects the iteration count. A
    super-solution x0 (g_q(x0) <= x0, as the fixed point at a smaller q is)
    makes the first Newton candidate certifiable.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    fact = target.critical_closed_form
    ref = 1.0 - 1.0 / target.rho**2 if fact is None else fact
    if 0.0 < q - ref < 1e-3:
        warnings.warn(
            f"q = {q:.6g} is within 1e-3 above the critical probability (or, "
            f"without a closed form, its lower bound) {ref:.6g}; the fixed point "
            "may be large",
            ConditioningWarning,
            stacklevel=2,
        )
    X = check_covariance(target.Q, "Q") if x0 is None else check_covariance(x0, "x0")
    if fact is not None and q <= fact:
        return MareResult(MareStatus.DIVERGED, None, 0, float("inf"))
    # A super-solution Y >= (1-q) A Y A^T + Q needs (1-q) rho(A)^2 < 1
    # (for positive definite Q), so below that bound every step is plain.
    base = None
    if (1.0 - q) * target.rho**2 < 1.0:
        base = np.eye(target.n**2) - (1.0 - q) * _kron_self(target.A)
    G = g_q(target, q, X, validate=False)
    for k in range(1, max_iter + 1):
        step = None if base is None else _newton_step(target, q, base, X, G)
        Xn, Gn = step or (G, None)
        if fact is None and float(np.trace(Xn)) > TRACE_DIVERGENCE_CAP:
            return MareResult(MareStatus.DIVERGED, None, k, float("inf"))
        if Gn is None:
            Gn = g_q(target, q, Xn, validate=False)
        if np.linalg.norm(Xn - X) <= _STEP_TOL * (1 + np.linalg.norm(X)):
            return MareResult(MareStatus.CONVERGED, Xn, k, float(np.linalg.norm(Gn - Xn)))
        X, G = Xn, Gn
    return MareResult(MareStatus.MAX_ITERATIONS, X, max_iter, float(np.linalg.norm(G - X)))


def closed_form_delay_chain(spec: DelayChainSpec, q: float) -> np.ndarray | None:
    """Exact fixed point for a delayed scalar plant, or None if none exists.

    For the augmented chain produced by `expand_delay_chain` the fixed
    point has the explicit form X[i, j] = a^|i-j| * x[min(i, j)] with the
    diagonal sequence

        a^2 = 1:    x_1 = (Q + sqrt(Q^2 + 4 q Q R)) / (2 q),
                    x_j = x_1 + (j - 1) Q,
        a^2 != 1:   x_1 = (R a^2 - R + Q + sqrt((R a^2 - R + Q)^2
                          - 4 (a^2 - 1 - a^2 q) Q R))
                          / (2 (1 + a^2 q - a^2)),
                    x_j = a^(2(j-1)) x_1 + (1 - a^(2(j-1))) / (1 - a^2) Q,

    and it exists exactly when a^2 (1 - q) < 1: stable chains always
    converge, a marginally stable chain (a = +-1) needs q > 0, and an
    unstable one needs q above 1 - 1/a^2. Indices above are 1-based.

    Existence is read from the expanded target's fact
    (`LtiTarget.critical_closed_form`), so the oracle and the solver agree
    at every float q, the unit-circle band of the fact included. The
    denominator 1 + a^2 q - a^2 is formed as 1 - a^2 (1 - q) for a^2 < 1
    and as a^2 (q - fact) for a^2 > 1, both positive wherever q > fact, so
    every matrix returned is finite.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    a, Q, R = spec.a, spec.Q, spec.R
    n = spec.d + 1
    target = expand_delay_chain(spec)
    fact = target.critical_closed_form
    if fact is None:  # noise below the rank test's floor still drives the mode
        fact = 1.0 - 1.0 / target.rho**2
    if q <= fact:
        return None
    if a * a == 1.0:
        x1 = (Q + np.sqrt(Q * Q + 4.0 * q * Q * R)) / (2.0 * q)
        xs = x1 + Q * np.arange(n)
    else:
        den = a * a * (q - fact) if a * a > 1.0 else 1.0 - a * a * (1.0 - q)
        u = R * a * a - R + Q
        x1 = (u + np.sqrt(u * u + 4.0 * den * Q * R)) / (2.0 * den)
        pw = (a * a) ** np.arange(n)  # a^(2(j-1)), safe for negative a
        xs = pw * x1 + (1.0 - pw) / (1.0 - a * a) * Q
    i = np.arange(n)
    X = (a ** np.abs(i[:, None] - i[None, :])) * xs[np.minimum(i[:, None], i[None, :])]
    return symmetrize(X)


def critical_probability(target: LtiTarget, tol: float = 1e-4) -> float:
    """Infimum of the observation probabilities with a fixed point.

    Where the spectrum decides it, this is max(fact, 0) for the target's
    fact `critical_closed_form` (Sinopoli et al., IEEE TAC 2004; Mo &
    Sinopoli, IEEE TAC 2012), with no solve. Every other target has an
    undriven mode or several unstable ones. A target with no fixed point
    even at q = 1 cannot be scheduled at all: returns 1.0 and emits a
    RuntimeWarning. Else the lower bound 1 - 1/rho(A)^2 is exact when it is
    not positive (rho(A) = 1 returns 0.0), and above it q is bisected, with
    solve_mare convergence as the predicate, to width `tol`; the feasible
    endpoint is returned, so the result errs upward.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    fact = target.critical_closed_form
    if fact == 1.0 or fact is None and not solve_mare(target, 1.0).converged:
        warnings.warn(
            f"target {target.label or '?'}: no fixed point even at q = 1; "
            "it cannot be stabilized by any schedule",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    # with a fixed point at q = 1, rho(A) <= 1 makes the bound 1 - 1/rho^2 exact
    if fact is not None or target.rho <= 1.0:
        return 0.0 if fact is None else max(fact, 0.0)
    lo, hi = 1.0 - 1.0 / target.rho**2, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if solve_mare(target, mid).converged:
            hi = mid
        else:
            lo = mid
    return hi
