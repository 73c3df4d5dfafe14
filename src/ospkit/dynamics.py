"""Dense small-matrix numerics for continuous-time LTI discretization.

Provides the exact operators over one interval: ``discretize`` gives the
state-transition matrix Phi = e^{A d} and the integrated process-noise
covariance Qd over a length d, both from one Van Loan exponential of a
block matrix (IEEE TAC 1978); ``phi`` (an independent e^{A(t-s)}),
``noise_cov`` (the Qd of ``discretize``) and the zero-order-hold input
matrix ``input_integral`` take an interval [s, t].  Each exponential is
of a (block) matrix scaled by the length, so a singular state matrix A is
supported everywhere and a zero-length interval gives exactly I or zeros.
No operator writes into its arguments.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, OrderingError

__all__ = [
    "discretize",
    "phi",
    "input_integral",
    "noise_cov",
    "symmetrize",
]


def _as_square(M, name: str = "M") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DomainError(f"{name} contains non-finite entries")
    return M


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M^T)/2; suppresses floating-point asymmetry drift."""
    return (M + M.T) / 2.0


def _length(name: str, s: float, t: float) -> float:
    """Length t - s of [s, t]: the one endpoint check of every operator
    (``discretize`` checks its length d as the interval [0, d]).

    Raises :class:`DomainError` for a non-finite length (either endpoint
    infinite or NaN) and :class:`OrderingError` for s > t.
    """
    d = t - s
    if not np.isfinite(d):
        raise DomainError(f"{name} requires finite s and t, got s={s}, t={t}")
    if s > t:
        raise OrderingError(f"{name} requires s <= t, got s={s}, t={t}")
    return d


def phi(A, s: float, t: float) -> np.ndarray:
    """State-transition matrix e^{A(t-s)} for s <= t; Phi(s, s) = I exactly."""
    A = _as_square(A, "A")
    return scipy.linalg.expm(A * _length("phi", s, t))


def input_integral(A, B, s: float, t: float) -> np.ndarray:
    """ZOH input matrix Lambda(s, t) = (int_0^{t-s} e^{A tau} dtau) B for s <= t.

    Computed with the augmented block exponential

        exp([[A, I], [0, 0]] * d) = [[e^{A d}, int_0^d e^{A tau} dtau],
                                     [0,       I]],

    which supports singular A and coincides with A^{-1}(e^{A d} - I) when A
    is invertible.  Lambda(s, s) = 0 exactly.
    """
    A = _as_square(A, "A")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionError(f"B must have {n} rows, got shape {B.shape}")
    d = _length("input_integral", s, t)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    return scipy.linalg.expm(aug * d)[:n, n:] @ B


# Substep length cap for discretize, in units of 1 / ||A||: the Van Loan
# block carries e^{+||A|| d}, so a long stiff interval must be composed
# from short exact steps or the F22^T F12 product cancels catastrophically.
_VAN_LOAN_MAX_SCALE = 2.0


def discretize(A, Q, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and integrated process-noise covariance over an
    interval of length d >= 0: (Phi, Qd) = (e^{A d},
    int_0^d e^{A u} Q e^{A^T u} du), from one Van Loan exponential

        exp([[-A, Q], [0, A^T]] * h) = [[.., F12], [0, F22]],
        Ph = e^{A h} = F22^T,  Q over h = Ph F12,

    over ``steps`` uniform substeps of length h = d / steps.  Both are
    composed over the substeps with the exact semigroup identities
    Phi(u + h) = Ph Phi(u) and Q(u + h) = Ph Q(u) Ph^T + Q(h), so stiff
    systems stay accurate over long intervals.  Qd is symmetrized.
    d = 0 gives exactly (I, 0).  Raises DomainError for a non-finite d
    and OrderingError for d < 0.

    The checks of A and Q and the block built by ``_van_loan`` depend on
    the plant alone; the check of d, the exponential and the substeps are
    the kernel ``_discretize``.  ``SystemModel`` builds the block once and
    pays only the kernel per length.
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise DimensionError(f"Q must match A's dimension {n}, got {Q.shape}")
    if np.abs(Q - Q.T).max() > 1e-10 * max(np.abs(Q).max(), 1.0):
        raise DomainError("Q must be symmetric")
    return _discretize(_van_loan(A, Q), d)


def _van_loan(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, float]:
    """The Van Loan block [[-A, Q], [0, A^T]] of ``discretize`` and
    ||A||_inf, which sets its substep count, for a checked S x S A and a
    checked symmetric Q."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = -A
    aug[:n, n:] = Q
    aug[n:, n:] = A.T
    return aug, np.linalg.norm(A, np.inf)


def _discretize(block, d: float) -> tuple[np.ndarray, np.ndarray]:
    """``discretize`` over length d from ``block = _van_loan(A, Q)``: the
    check of d, the one exponential and the substeps, bit for bit."""
    aug, norm = block
    d = _length("discretize", 0.0, d)
    n = aug.shape[0] // 2
    steps = max(1, int(np.ceil(d * norm / _VAN_LOAN_MAX_SCALE)))
    h = d / steps
    F = scipy.linalg.expm(aug * h)
    Ph = F[n:, n:].T.copy()  # contiguous: every cache hit multiplies by Phi
    Qh = Ph @ F[:n, n:]
    Phi, acc = Ph, Qh
    for _ in range(steps - 1):
        Phi = Ph @ Phi
        acc = Ph @ acc @ Ph.T + Qh
    return Phi, symmetrize(acc)


def noise_cov(A, Q, s: float, t: float) -> np.ndarray:
    """Integrated process-noise covariance int_0^{t-s} e^{A u} Q e^{A^T u} du
    for s <= t: the Qd of ``discretize`` over t - s."""
    return discretize(A, Q, _length("noise_cov", s, t))[1]
