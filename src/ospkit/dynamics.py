"""Dense small-matrix numerics for continuous-time LTI discretization.

Provides the three exact operators over one interval [s, t]: the
state-transition matrix Phi(s, t) = e^{A(t-s)}, the zero-order-hold input
matrix Lambda(s, t) and the integrated process-noise covariance Q(s, t).
Each is one exponential of a (block) matrix scaled by t - s (Van Loan,
IEEE TAC 1978), so a singular state matrix A is supported everywhere and
a zero-length interval gives exactly I or zeros.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, OrderingError

__all__ = [
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
    """Length t - s of [s, t]: the one endpoint check of phi, input_integral, noise_cov.

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


# Substep length cap for noise_cov, in units of 1 / ||A||: the Van Loan
# block carries e^{+||A|| d}, so a long stiff interval must be composed
# from short exact steps or the F22^T F12 product cancels catastrophically.
_VAN_LOAN_MAX_SCALE = 2.0


def _van_loan_step(A: np.ndarray, Q: np.ndarray, d: float) -> np.ndarray:
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = -A
    aug[:n, n:] = Q
    aug[n:, n:] = A.T
    F = scipy.linalg.expm(aug * d)
    return F[n:, n:].T @ F[:n, n:]


def noise_cov(A, Q, s: float, t: float) -> np.ndarray:
    """Integrated process-noise covariance int_0^{t-s} e^{A u} Q e^{A^T u} du.

    Uses the Van Loan augmented-exponential method

        exp([[-A, Q], [0, A^T]] * d) = [[.., F12], [0, F22]],
        Q over d = F22^T F12,

    composed over uniform substeps via the exact semigroup identity
    Q(s, t) = Phi Q(s, u) Phi^T + Q(u, t) so that stiff systems stay
    accurate over long intervals.  Output is symmetrized.  Requires s <= t.
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise DimensionError(f"Q must match A's dimension {n}, got {Q.shape}")
    if np.abs(Q - Q.T).max() > 1e-10 * max(np.abs(Q).max(), 1.0):
        raise DomainError("Q must be symmetric")
    d = _length("noise_cov", s, t)
    steps = max(1, int(np.ceil(d * np.linalg.norm(A, np.inf) / _VAN_LOAN_MAX_SCALE)))
    h = d / steps
    Qh = _van_loan_step(A, Q, h)
    if steps == 1:
        return symmetrize(Qh)
    Ph = scipy.linalg.expm(A * h)
    acc = Qh
    for _ in range(steps - 1):
        acc = Ph @ acc @ Ph.T + Qh
    return symmetrize(acc)
