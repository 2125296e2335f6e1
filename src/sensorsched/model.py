"""Target models for shared-sensor scheduling.

A scenario is a collection of independent discrete-time linear systems
("targets"), each evolving as x[k+1] = A x[k] + w[k] with measurement
y[k] = C x[k] + v[k], observed by a single shared sensor. One target is
observed per sampling period, so scheduling amounts to choosing which
target gets the sensor at each step, or with what probability.

The facts every layer reads about a target are decided here, once: its
spectrum (`LtiTarget.eigs`, `rho`), whether each mode is observable and
driven by the noise (`LtiTarget.pbh_modes`), the largest observation
probability without a fixed point wherever the spectrum decides it
(`LtiTarget.critical_closed_form`), the unit-circle band and the rule a
noise covariance obeys (`check_covariance`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "LtiTarget",
    "DelayChainSpec",
    "ScheduleDistribution",
    "ValidationReport",
    "symmetrize",
    "check_covariance",
    "validate_target",
    "expand_delay_chain",
]

# Relative singular-value threshold for the PBH rank tests below.
_PBH_RTOL = 1e-8
# Eigenvalues within this distance of the unit circle count as on it.
_UNIT_CIRCLE_TOL = 1e-9


def _as_square(name: str, value) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class LtiTarget:
    """One linear target: x[k+1] = A x[k] + w, y[k] = C x[k] + v.

    Q is the process noise covariance, R the measurement noise covariance.
    `cost_weights`, when given, is a vector of nonnegative diagonal weights
    selecting which state variances count toward the target's estimation
    cost; the default (None) counts every state, i.e. the cost of an error
    covariance X is its full trace. Delay-augmented targets use this to
    score only the physical state, see `expand_delay_chain`.

    Arrays are copied and frozen; dimension mismatches and non-finite
    entries raise immediately. `eigs`, the eigenvalues of A, is computed
    once here and frozen too; `rho` is the spectral radius, `AC_T` the
    stacked [A; C]^T that every Riccati update multiplies by, `pbh_modes`
    whether each mode is observable and driven, and `critical_closed_form`
    the one existence fact every layer reads, each derived on first read.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    label: str = ""
    cost_weights: np.ndarray | None = None
    eigs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = _as_square("A", self.A)
        n = A.shape[0]
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        Q = _as_square("Q", self.Q)
        if Q.shape[0] != n:
            raise ValueError(f"Q is {Q.shape[0]}x{Q.shape[0]}, expected {n}x{n}")
        R = _as_square("R", self.R)
        if R.shape[0] != C.shape[0]:
            raise ValueError(
                f"R is {R.shape[0]}x{R.shape[0]}, expected {C.shape[0]}x{C.shape[0]}"
            )
        w = self.cost_weights
        if w is not None:
            w = np.asarray(w, dtype=float).reshape(-1)
            if w.shape[0] != n:
                raise ValueError(f"cost_weights has length {w.shape[0]}, expected {n}")
            if np.any(w < 0):
                raise ValueError("cost_weights must be nonnegative")
            w = _freeze(w)
        for name, M in (("A", A), ("C", C), ("Q", Q), ("R", R), ("cost_weights", w)):
            if M is not None and not np.isfinite(M).all():
                raise ValueError(f"{name} must have finite entries only")
        eigs = np.linalg.eigvals(A)
        eigs.flags.writeable = False
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "Q", _freeze(Q))
        object.__setattr__(self, "R", _freeze(R))
        object.__setattr__(self, "cost_weights", w)
        object.__setattr__(self, "eigs", eigs)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def p(self) -> int:
        """Measurement dimension."""
        return self.C.shape[0]

    @cached_property
    def rho(self) -> float:
        """Spectral radius of A."""
        return float(np.max(np.abs(self.eigs)))

    @cached_property
    def AC_T(self) -> np.ndarray:
        """[A; C]^T, n x (n + p), read only: the one operand of the
        Riccati update (`mare._riccati_step`)."""
        AC_T = np.concatenate((self.A.T, self.C.T), axis=1)
        AC_T.flags.writeable = False
        return AC_T

    @cached_property
    def critical_closed_form(self) -> float | None:
        """The largest q at which g_q has no fixed point, from the modes of A
        on or outside the unit circle (Sinopoli et al., IEEE TAC 2004): -inf
        without such a mode (no PBH test is run then). When every such mode
        is driven by the process noise (`pbh_modes`): 1.0 when one is
        unobservable, 0.0 when all lie on the circle, and 1 - 1/M^2, M the
        product of their moduli, when all lie strictly outside it and either
        the target has one output or the mode is a single real eigenvalue.
        None otherwise: an undriven mode stays at 0 from Q, so only solving
        (`mare.critical_probability`) can tell."""
        unstable = np.abs(self.eigs) >= 1.0 - _UNIT_CIRCLE_TOL
        if not unstable.any():
            return -np.inf
        modes, (observable, driven) = self.eigs[unstable], self.pbh_modes[unstable].T
        if not (driven.all() and observable.all()):
            return 1.0 if driven.all() else None
        on = np.abs(modes) <= 1.0
        if on.all():
            return 0.0
        if on.any() or self.p > 1 and (len(modes) != 1 or modes[0].imag):
            return None
        return 1.0 - 1.0 / float(np.prod(np.abs(modes))) ** 2

    @cached_property
    def pbh_modes(self) -> np.ndarray:
        """(observable, driven) per eigenvalue, in the order of `eigs`, read
        only: PBH rank tests of [A - lambda I; C] and [A - lambda I, Q^(1/2)],
        the one rank rule of `validate_target` and `critical_closed_form`."""
        Qh = _psd_sqrt(self.Q)
        # rounding leaves ~n eps |A| in A - lambda I where it is 0 (A = lambda I
        # in a rotated basis); with C or Q zero that noise alone would rank n
        floor = 10 * self.n * np.finfo(float).eps * np.abs(self.A).max()
        modes = np.array([
            (_pbh_rank(np.vstack([self.A - lam * np.eye(self.n), self.C]), floor) == self.n,
             _pbh_rank(np.hstack([self.A - lam * np.eye(self.n), Qh]), floor) == self.n)
            for lam in self.eigs
        ])
        modes.flags.writeable = False
        return modes

    def cost_of(self, X: np.ndarray) -> float | np.ndarray:
        """Estimation cost of an error covariance: its weighted trace.

        X may also be planes [n, n, *rows] (see `mare._riccati_step`); the
        result then has one cost per plane, with the bits of that
        covariance scored alone (`_weighted_trace`).
        """
        w = self.cost_weights
        return _weighted_trace(X, None if w is None else w.reshape(-1, *(1,) * (X.ndim - 2)))


def _weighted_trace(X: np.ndarray, weights: np.ndarray | None) -> float | np.ndarray:
    """The diagonal of every plane of X [n, n, *rows], times `weights`
    (broadcast against [n, *rows]) unless None, summed in the order numpy
    sums one matrix's diagonal, whatever X's memory layout: unit weights
    give each plane's trace bit for bit."""
    n = len(X)
    d = X.reshape(n * n, *X.shape[2:])[::n + 1]  # d[i]: entry (i, i) of every plane
    if weights is not None:
        d = d * weights
    # numpy adds fewer than 8 terms in order, as d.sum(0) does across the
    # planes; from 8 up it sums pairwise along a contiguous axis, which needs
    # each plane's diagonal innermost. The copy that takes costs about 20 us
    # against 2 us for d.sum(0) on 1000 2x2 planes, so small n skips it.
    if n < 8:
        return d.sum(0)
    return np.ascontiguousarray(np.moveaxis(d, 0, -1)).sum(-1)


@dataclass(frozen=True)
class DelayChainSpec:
    """Scalar plant a with a d-step measurement delay.

    The physical state obeys x[k+1] = a x[k] + w[k], Var(w) = Q, and the
    sensor sees y[k] = x[k-d] + v[k], Var(v) = R. `expand_delay_chain`
    turns this into an augmented LtiTarget whose extra states shift the
    delayed value toward the output.
    """

    a: float
    Q: float
    R: float
    d: int = 0

    def __post_init__(self):
        if not self.Q > 0:
            raise ValueError("Q must be positive")
        if not self.R > 0:
            raise ValueError("R must be positive")
        if int(self.d) != self.d or self.d < 0:
            raise ValueError("d must be a nonnegative integer")
        object.__setattr__(self, "d", int(self.d))


@dataclass(frozen=True, eq=False)
class ScheduleDistribution:
    """Probabilities of observing each target in one sampling period.

    Entries must be finite, lie in [0, 1] and sum to 1 within 1e-9.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(-1)
        if q.size == 0:
            raise ValueError("distribution must have at least one entry")
        if not np.all((q >= 0) & (q <= 1)):
            raise ValueError(f"probabilities must lie in [0, 1], got {q}")
        if abs(q.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {q.sum()!r}, expected 1")
        object.__setattr__(self, "q", _freeze(q))

    def __len__(self) -> int:
        return self.q.shape[0]

    def __getitem__(self, i: int) -> float:
        return float(self.q[i])


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_target: hard failures plus advisory warnings."""

    failures: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average away the antisymmetric part accumulated by floating point.

    M is one matrix [n, n] or planes [n, n, *rows] (see
    `mare._riccati_step`); each plane is symmetrized on its own.
    """
    return (M + M.swapaxes(0, 1)) / 2


def check_covariance(X: np.ndarray, name: str = "X") -> np.ndarray:
    """Validate a covariance matrix: symmetric, positive semidefinite.

    Symmetry is required within 1e-10 relative to the largest entry;
    eigenvalues may be negative only below 1e-9 relative to the largest
    one. Returns the symmetrized array.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"{name} must be square, got shape {X.shape}")
    scale = max(1.0, float(np.abs(X).max()))
    if np.abs(X - X.T).max() > 1e-10 * scale:
        raise ValueError(f"{name} is not symmetric")
    X = symmetrize(X)
    eigs = np.linalg.eigvalsh(X)
    if eigs[0] < -1e-9 * max(1.0, eigs[-1]):
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
    return X


def _psd_sqrt(Q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(symmetrize(Q))
    # eigh leaves ~n eps of the largest for a zero; its root would decide PBH ranks
    floor = 10 * len(vals) * np.finfo(float).eps * max(vals[-1], 0.0)
    vals = np.where(vals > floor, vals, 0.0)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def _pbh_rank(M: np.ndarray, floor: float = 0.0) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > max(_PBH_RTOL * s.max(initial=0.0), floor)))


def validate_target(target: LtiTarget) -> ValidationReport:
    """Check a target's noise covariances and structural properties.

    Failures: Q or R failing `check_covariance`, R not positive definite,
    or an unobservable mode of A on or outside the unit circle (within
    1e-9; the filter error would then grow without bound no matter how
    often the target is observed). Warnings: Q only positive semidefinite
    (singular) while (A, Q^(1/2)) stays controllable, which the fixed-point
    theory tolerates but full-rank process noise would not require.

    Rank decisions are the target's `pbh_modes`: PBH tests with singular
    values thresholded at 1e-8 relative to the largest one, and never below
    the rounding in A - lambda I.
    """
    failures: list[str] = []
    warns: list[str] = []

    for name, M in (("Q", target.Q), ("R", target.R)):
        try:
            M = check_covariance(M, name)
        except ValueError as e:
            failures.append(str(e))
            continue
        if name == "R" and (r_min := np.linalg.eigvalsh(M)[0]) <= 0:
            failures.append(f"R must be positive definite (min eigenvalue {r_min:.3e})")

    # Detectability: every mode on or outside the unit circle must be observable.
    observable, driven = target.pbh_modes.T
    for lam, ok in zip(target.eigs, observable):
        if abs(lam) >= 1.0 - _UNIT_CIRCLE_TOL and not ok:
            failures.append(
                f"mode {lam:.6g} (|mode| = {abs(lam):.6g}) is unobservable; "
                "the estimation error diverges even under constant observation"
            )

    # Controllability of (A, Q^(1/2)): needed for the fixed-point convergence
    # guarantees; only a warning when it fails alongside full-rank Q.
    if not driven.all():
        warns.append(f"(A, Q^(1/2)) is not controllable at mode {target.eigs[~driven][0]:.6g}")
    elif _pbh_rank(_psd_sqrt(target.Q)) < target.n:
        warns.append(
            "Q is singular (positive semidefinite only); accepted because "
            "(A, Q^(1/2)) is controllable"
        )

    return ValidationReport(failures=tuple(failures), warnings=tuple(warns))


def expand_delay_chain(spec: DelayChainSpec, label: str = "") -> LtiTarget:
    """Augment a delayed scalar plant into an explicit LtiTarget.

    The n = d+1 dimensional state stacks the delayed values so that the
    first coordinate is the measured (d steps old) one and the last is the
    physical state: A has ones on the superdiagonal and `a` in the bottom
    right corner, noise enters only the last state (Q_full = B Q B^T with
    B the last unit vector), and C reads the first state. The returned
    target scores estimation cost on the physical state alone
    (cost_weights selects the last coordinate): the other coordinates are
    bookkeeping copies, and counting them would bias scheduling toward
    long chains.
    """
    n = spec.d + 1
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = 1.0
    A[n - 1, n - 1] = spec.a
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    Q = np.zeros((n, n))
    Q[n - 1, n - 1] = spec.Q
    R = np.array([[spec.R]])
    w = np.zeros(n)
    w[n - 1] = 1.0
    return LtiTarget(A=A, C=C, Q=Q, R=R, label=label, cost_weights=w)
