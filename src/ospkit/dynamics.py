"""Dense small-matrix kernels of the plant's length operators.

The plant is time-invariant, so every operator depends only on the length
d of an interval.  ``SystemModel`` is the one checked entry to them: it
checks A, B and Q once, builds the Van Loan block with ``_van_loan`` and
the input block with ``_input_block``, and calls ``_discretize`` (Phi and
Qd), ``_input_integral`` (the zero-order-hold input matrix) and
``_noise_factor`` (a factor of Qd) per length.  Lengths add, so
``_compose`` builds (Phi, Qd) over a sum of lengths from the pairs over
its parts, for ``_discretize``'s substeps.  These kernels check nothing
but the length (``_length``).  Each exponential is of a block matrix
scaled by the length, so a singular state matrix A is supported
everywhere and a zero length gives exactly I or zeros.  No kernel writes
into its arguments.

The exponential is owned here, as ``_expm``: scaling and squaring over
the [m/m] Pade approximants of N. J. Higham, "The scaling and squaring
method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl.
26(4), 2005.  It replaces ``scipy.linalg.expm``, the one scipy function
the package called: importing ``scipy.linalg`` cost more than the 200
cycles of a default run, and an owned kernel keeps the outputs the same
whichever scipy release is installed.
"""

from __future__ import annotations

import math

import numpy as np

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


def _input_block(A: np.ndarray) -> tuple[np.ndarray, float]:
    """The block [[A, I], [0, 0]] of ``_input_integral`` and its 1-norm,
    which sets the Pade order of each exponential, for a checked S x S A.
    It depends on the plant alone, so ``SystemModel`` builds it once."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    return aug, float(np.abs(aug).sum(0).max())


def _input_integral(block, B: np.ndarray, d: float) -> np.ndarray:
    """ZOH input matrix Lambda(d) = (int_0^d e^{A tau} dtau) B for d >= 0,
    from ``block = _input_block(A)`` and a checked S x M B.

    Computed with the augmented block exponential

        exp([[A, I], [0, 0]] * d) = [[e^{A d}, int_0^d e^{A tau} dtau],
                                     [0,       I]],

    which supports singular A and coincides with A^{-1}(e^{A d} - I) when A
    is invertible.  Lambda(0) = 0 exactly.  Raises DomainError for a
    non-finite d and OrderingError for d < 0.
    """
    aug, norm1 = block
    _length("input_integral", d)
    n = aug.shape[0] // 2
    return _expm(aug * d, norm1 * d)[:n, n:] @ B


# Substep length cap for _discretize, in units of 1 / ||A||: the Van Loan
# block carries e^{+||A|| d}, so a long stiff interval must be composed
# from short exact steps or the F22^T F12 product cancels catastrophically.
_VAN_LOAN_MAX_SCALE = 2.0


def _van_loan(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The Van Loan block [[-A, Q], [0, A^T]] of ``_discretize``,
    ||A||_inf, which sets its substep count, and the block's 1-norm, which
    sets the Pade order of each exponential, for a checked S x S A and a
    checked symmetric Q.  It depends on the plant alone, so
    ``SystemModel`` builds it once."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = -A
    aug[:n, n:] = Q
    aug[n:, n:] = A.T
    return aug, float(np.linalg.norm(A, np.inf)), float(np.abs(aug).sum(0).max())


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
    aug, norm, norm1 = block
    _length("discretize", d)
    n = aug.shape[0] // 2
    steps = max(1, math.ceil(d * norm / _VAN_LOAN_MAX_SCALE))
    h = d / steps
    F = _expm(aug * h, norm1 * h)
    Ph = F[n:, n:].T.copy()  # contiguous: every cache hit multiplies by Phi
    sub = (Ph, Ph @ F[:n, n:])
    Phi, acc = sub
    for _ in range(steps - 1):
        Phi, acc = _compose((Phi, acc), sub)
    return Phi, symmetrize(acc)


# Higham 2005, Table 2.3: theta_m, the largest 1-norm of X for which the
# [m/m] Pade approximant of e^X has a backward error of at most 2^-53.
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))


def _pade_coefficients(m: int) -> np.ndarray:
    """Rows that combine the stacked even powers (I, X^2, X^4, ..) of X
    into the [m/m] Pade approximant's odd part U / X and even part V, whose
    j-th coefficient is b_j = (2m - j)! / (j! (m - j)!).

    For m <= 9 the stack runs to X^(m-1) and the two rows are U / X and V.
    For m = 13 it stops at X^6, and four rows give the high and low halves
    of each, (U_hi, V_hi, U_lo, V_lo), with U / X = X^6 U_hi + U_lo and
    V = X^6 V_hi + V_lo, so that no power above X^6 is formed."""
    f = math.factorial
    b = [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]
    odd, even = b[1::2], b[0::2]
    if m <= 9:
        return np.array([odd, even])
    return np.array([[0.0] + odd[4:], [0.0] + even[4:], odd[:4], even[:4]])


_PADE = {m: _pade_coefficients(m) for m in (3, 5, 7, 9, 13)}
_EYE: dict[int, np.ndarray] = {}  # the identity of each size, never written into
# np.linalg.solve's LAPACK gufunc without the wrapper, whose checks and
# error-state switch cost twice the solve itself at these sizes.  Same bits,
# but a singular matrix gives NaN, not LinAlgError; V - U is nonsingular for
# every X its theta_m admits.  np.linalg.solve stands in if numpy moves it.
_solve = getattr(getattr(np.linalg, "_umath_linalg", None), "solve", np.linalg.solve)


def _expm(X: np.ndarray, norm: float) -> np.ndarray:
    """e^X for a float n x n X whose 1-norm is ``norm``, by scaling and
    squaring (Higham 2005, Algorithm 2.3).  The lowest Pade order m whose
    theta_m covers ``norm`` is used as is; past theta_13, X is halved s
    times, until its norm is within theta_13, and the [13/13] approximant
    is squared s times.  The approximant is evaluated as
    I + 2 (V - U)^-1 U, which keeps the digits of e^X - I when e^X is near
    I, and gives exactly I for X = 0.  The caller passes ``norm`` because
    it usually knows it from an unscaled block.  X is not written into."""
    n = X.shape[0]
    eye = _EYE.get(n)
    if eye is None:
        eye = _EYE[n] = np.eye(n)
    s = 0
    for m, theta in _PADE_THETA:
        if norm <= theta:
            break
    else:  # past theta_13: the [13/13] approximant of X / 2^s, squared s times
        s = math.ceil(math.log2(norm / theta))
        X = X * 0.5**s
    coef = _PADE[m]
    k = coef.shape[1]
    P = np.empty((k, n, n))
    P[0] = eye
    np.dot(X, X, out=P[1])
    for j in range(2, k):
        np.dot(P[j - 1], P[1], out=P[j])
    W = coef.dot(P.reshape(k, n * n)).reshape(-1, n, n)
    if m == 13:
        W = np.matmul(P[3], W[:2]) + W[2:]
    U = X.dot(W[0])
    R = _solve(W[1] - U, U)
    R *= 2.0
    R += eye
    for _ in range(s):
        R = R.dot(R)
    return R


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
