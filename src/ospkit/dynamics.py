"""Dense small-matrix kernels of the plant's length operators.

The plant is time-invariant, so every operator depends only on the length
d of an interval.  ``SystemModel`` is the one checked entry to them: it
checks A, B and Q once, builds the Van Loan block with ``_van_loan`` and
calls ``_discretize`` (Phi and Qd), ``_input_integral`` (the
zero-order-hold input matrix) and ``_noise_factor`` (a factor of Qd) per
length.  Lengths add, so ``_compose`` builds (Phi, Qd) over a sum of
lengths from the pairs over its parts, for ``_discretize``'s substeps and
for ``scheduler.RankKernel``.  These kernels check nothing but the length
(``_length``).  Each exponential is of a block matrix scaled by the
length, so a singular state matrix A is supported everywhere and a zero
length gives exactly I or zeros.  No kernel writes into its arguments.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericError, OrderingError

__all__ = ["symmetrize"]


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M^T)/2; suppresses floating-point asymmetry drift."""
    return (M + M.T) / 2.0


def _length(name: str, d: float) -> None:
    """The one check of an interval length d, for every operator.

    Raises :class:`DomainError` for a non-finite d and
    :class:`OrderingError` for d < 0.
    """
    if not math.isfinite(d):
        raise DomainError(f"{name} requires a finite length, got d={d}")
    if d < 0:
        raise OrderingError(f"{name} requires a length d >= 0, got d={d}")


def _input_integral(A: np.ndarray, B: np.ndarray, d: float) -> np.ndarray:
    """ZOH input matrix Lambda(d) = (int_0^d e^{A tau} dtau) B for d >= 0,
    for a checked S x S A and S x M B.

    Computed with the augmented block exponential

        exp([[A, I], [0, 0]] * d) = [[e^{A d}, int_0^d e^{A tau} dtau],
                                     [0,       I]],

    which supports singular A and coincides with A^{-1}(e^{A d} - I) when A
    is invertible.  Lambda(0) = 0 exactly.  Raises DomainError for a
    non-finite d and OrderingError for d < 0.
    """
    _length("input_integral", d)
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    return scipy.linalg.expm(aug * d)[:n, n:] @ B


# Substep length cap for _discretize, in units of 1 / ||A||: the Van Loan
# block carries e^{+||A|| d}, so a long stiff interval must be composed
# from short exact steps or the F22^T F12 product cancels catastrophically.
_VAN_LOAN_MAX_SCALE = 2.0


def _van_loan(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, float]:
    """The Van Loan block [[-A, Q], [0, A^T]] of ``_discretize`` and
    ||A||_inf, which sets its substep count, for a checked S x S A and a
    checked symmetric Q.  It depends on the plant alone, so
    ``SystemModel`` builds it once."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = -A
    aug[:n, n:] = Q
    aug[n:, n:] = A.T
    return aug, float(np.linalg.norm(A, np.inf))


def _discretize(block, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and integrated process-noise covariance over an
    interval of length d >= 0: (Phi, Qd) = (e^{A d},
    int_0^d e^{A u} Q e^{A^T u} du), from ``block = _van_loan(A, Q)`` and
    one Van Loan exponential (IEEE TAC 1978)

        exp([[-A, Q], [0, A^T]] * h) = [[.., F12], [0, F22]],
        Ph = e^{A h} = F22^T,  Q over h = Ph F12,

    over ``steps`` uniform substeps of length h = d / steps.  Both are
    composed over the substeps with the exact semigroup identities
    Phi(u + h) = Ph Phi(u) and Q(u + h) = Ph Q(u) Ph^T + Q(h), so stiff
    systems stay accurate over long intervals.  Qd is symmetrized.
    d = 0 gives exactly (I, 0).  Raises DomainError for a non-finite d
    and OrderingError for d < 0.
    """
    aug, norm = block
    _length("discretize", d)
    n = aug.shape[0] // 2
    steps = max(1, math.ceil(d * norm / _VAN_LOAN_MAX_SCALE))
    h = d / steps
    F = scipy.linalg.expm(aug * h)
    Ph = F[n:, n:].T.copy()  # contiguous: every cache hit multiplies by Phi
    sub = (Ph, Ph @ F[:n, n:])
    Phi, acc = sub
    for _ in range(steps - 1):
        Phi, acc = _compose((Phi, acc), sub)
    return Phi, symmetrize(acc)


def _compose(first, then) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Qd) over the length a + b from ``first`` = (Phi, Qd) over a
    and ``then`` = (Phi, Qd) over b, by the semigroup identities
    Phi(a + b) = Phi(b) Phi(a) and Q(a + b) = Phi(b) Q(a) Phi(b)^T + Q(b)
    of a time-invariant plant.  Qd is not symmetrized."""
    Phi_a, Q_a = first
    Phi_b, Q_b = then
    return Phi_b @ Phi_a, Phi_b @ Q_a @ Phi_b.T + Q_b


def _noise_factor(Q: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = Q: Cholesky when Q is positive definite, else
    from the eigendecomposition, which needs Q positive semi-definite
    (NumericError otherwise)."""
    try:
        return np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh((Q + Q.T) / 2.0)
    if w.min() < -1e-12 * max(float(np.trace(Q)) / Q.shape[0], 1.0):
        raise NumericError("process-noise covariance is not PSD")
    return V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
