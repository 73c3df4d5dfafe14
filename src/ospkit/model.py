"""Continuous-time LTI plant description shared by the estimator and scheduler."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .errors import ConfigError, DimensionError, DomainError

__all__ = ["SystemModel", "check_covariance", "check_period"]

_SYM_TOL = 1e-10
_PSD_TOL = -1e-10

# Most interval lengths SystemModel.discretize keeps memoized.
DISC_CACHE_SIZE = 1024


def check_covariance(name: str, M, n: int) -> np.ndarray:
    """``symmetrize(M)``: M as a new, exactly symmetric n x n float array.
    Raises DimensionError unless M is n x n and DomainError unless it is
    finite, symmetric within ``_SYM_TOL`` and positive semi-definite within
    ``_PSD_TOL``.

    Every covariance anchor passes through here, so it is exactly
    symmetric, as ``kalman.predict_cov`` needs to return its input for a
    zero-length interval.  Covariances are never mutated in place.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise DimensionError(f"{name} must be {n}x{n}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DomainError(f"{name} contains non-finite entries")
    if np.abs(M - M.T).max() > _SYM_TOL:
        raise DomainError(f"{name} must be symmetric")
    M = dynamics.symmetrize(M)
    if np.linalg.eigvalsh(M).min() < _PSD_TOL:
        raise DomainError(f"{name} must be positive semi-definite")
    return M


def check_period(T) -> None:
    """DomainError unless the decision period T is a number (not a bool),
    finite and > 0; ``SystemModel`` and ``scheduler.CycleContext`` check
    theirs here."""
    if isinstance(T, bool):
        raise DomainError(f"decision period T must be a number, got {T!r}")
    if not 0.0 < T < math.inf:
        raise DomainError(f"decision period T must be finite and > 0, got {T}")


@dataclass(frozen=True)
class SystemModel:
    """LTI plant x' = Ax + Bu + v, y = Cx + w with periodic sampling.

    A is S x S, B is S x M, C is N x S (one row per observer), Q is the S x S
    process-noise intensity, R the N x N observation-noise covariance:
    diagonal, as the per-observation scalar updates use only the
    per-observer variance, which must be > 0.  T is the decision period and
    ``observer_periods`` holds the N sampling periods, each finite and > 0
    and not a bool.

    The model is the one checked entry to the plant's operators.  The plant
    is time-invariant, so they depend only on an interval's length, and
    every caller reaches them by length alone: ``discretize`` (Phi, Qd),
    ``input_lambda`` (Lambda), ``boundary_operator`` (M, c), with which
    ``scheduler.RankKernel`` ranks covariances by ``<M, P> + c`` (the
    anchor's pair and the last root follower's), and
    ``noise_factor`` (a factor of Qd), with which ``sim.step_true_state``
    draws process noise, share one memoized cache entry per length.  A
    miss runs the unchecked ``dynamics`` kernels on the A, B and Q checked
    here.  The cache is a plain memo: each length's (Phi, Qd) is its
    exponential, whatever was computed before, so every caller reads the
    same bits for a length on any model; ``scheduler.RankKernel``
    composes no operator, so what it holds depends on its instance alone.
    Each observer's C row and noise variance are stored once, for
    ``obs_row`` and ``obs_var``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    T: float
    observer_periods: tuple[float, ...]
    # Length -> [(Phi, Qd), Lambda, (M, c), noise factor]; the last three
    # are filled on first use.
    _disc_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # dynamics._van_loan(A, Q): what a discretization depends on besides dt.
    _van_loan: tuple = field(init=False, repr=False, compare=False)
    # dynamics._input_block(A): what Lambda depends on besides dt and B.
    _input_block: tuple = field(init=False, repr=False, compare=False)
    # obs_row and obs_var of each observer: contiguous 1-D rows and floats.
    _obs_rows: tuple = field(init=False, repr=False, compare=False)
    _obs_vars: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        check_period(self.T)
        if any(isinstance(p, bool) for p in self.observer_periods):
            raise DomainError(
                f"observer_periods must be numbers, got {tuple(self.observer_periods)!r}"
            )
        periods = tuple(float(p) for p in self.observer_periods)

        for name, M in (("A", A), ("B", B), ("C", C), ("R", R)):
            if not np.all(np.isfinite(M)):
                raise DomainError(f"{name} contains non-finite entries")
        S = A.shape[0]
        if A.shape != (S, S):
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.shape[0] != S:
            raise DimensionError(f"B must have {S} rows, got {B.shape}")
        if C.shape[1] != S:
            raise DimensionError(f"C must have {S} columns, got {C.shape}")
        N = C.shape[0]
        Q = check_covariance("Q", np.atleast_2d(self.Q), S)
        if R.shape != (N, N):
            raise DimensionError(f"R must be {N}x{N}, got {R.shape}")
        if R.size and np.abs(R - np.diag(np.diag(R))).max() > 0.0:
            raise ConfigError(
                "R must be diagonal: per-observation scalar updates assume "
                "uncorrelated observation noise"
            )
        if not np.all(np.diag(R) > 0.0):
            raise DomainError("R must have a positive diagonal")
        if len(periods) != N:
            raise DimensionError(
                f"need one observer period per C row ({N}), got {len(periods)}"
            )
        if not all(0.0 < p < math.inf for p in periods):
            raise DomainError(f"observer periods must be finite and > 0, got {periods}")

        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "observer_periods", periods)
        object.__setattr__(self, "_van_loan", dynamics._van_loan(A, Q))
        object.__setattr__(self, "_input_block", dynamics._input_block(A))
        object.__setattr__(self, "_obs_rows", tuple(row.copy() for row in C))
        object.__setattr__(self, "_obs_vars", tuple(float(r) for r in np.diag(R)))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_observers(self) -> int:
        return self.C.shape[0]

    @property
    def n_agents(self) -> int:
        return self.B.shape[1]

    def obs_row(self, n: int) -> np.ndarray:
        """Row of C for observer n, as a contiguous 1-D vector, shared by
        every caller and never written into."""
        return self._obs_rows[n]

    def obs_var(self, n: int) -> float:
        """Observation-noise variance of observer n."""
        return self._obs_vars[n]

    def discretize(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(Phi, Qd) over an interval of length dt >= 0, memoized per length.

        The plant is time-invariant, so both depend only on dt.  A miss
        runs ``dynamics._discretize`` on the Van Loan block the model built
        once from its checked A and Q: it costs the check of dt, one
        exponential and its substeps.  Every cached pair is that
        exponential's, so the bits returned for dt never depend on what the
        model computed before.  The cache keeps the ``DISC_CACHE_SIZE``
        lengths added last; a full cache evicts the one added first, with
        the ``input_lambda``, ``boundary_operator`` and ``noise_factor``
        values computed for it.
        A negative or non-finite dt is never cached: ``dynamics._length``
        raises OrderingError or DomainError for it before the exponential,
        the one interval check for the callers passing dt = t - s.  The
        cached arrays are shared by every caller and never written into.
        """
        entry = self._disc_cache.get(dt)
        if entry is None:
            disc = dynamics._discretize(self._van_loan, dt)
            if len(self._disc_cache) >= DISC_CACHE_SIZE:
                del self._disc_cache[next(iter(self._disc_cache))]
            self._disc_cache[dt] = entry = [disc, None, None, None]
        return entry[0]

    def input_lambda(self, dt: float) -> np.ndarray:
        """ZOH input matrix Lambda = (int_0^dt e^{A tau} dtau) B over length
        dt, from ``dynamics._input_integral`` on the block the model built
        once from its checked A, and on its checked B, memoized with
        ``discretize``."""
        entry = self._entry(dt)
        if entry[1] is None:
            entry[1] = dynamics._input_integral(self._input_block, self.B, dt)
        return entry[1]

    def boundary_operator(self, dt: float) -> tuple[np.ndarray, float]:
        """Boundary pair (M, c) = (Phi^T Phi, trace Qd) over length dt,
        memoized with ``discretize``; a cached length's pair costs no
        exponential.

        For a symmetric P, ``np.vdot(M, P) + c`` is the trace of
        Phi P Phi^T + Qd, the MSE of P predicted over dt, for one S x S
        inner product instead of two matrix products.  The two agree to
        rounding, not bit for bit: ``scheduler.RankKernel`` ranks the
        search's rows with the pair of the last root follower, the prior
        with the anchor's, and the search reports its winner through
        ``kalman.predict_cov``.
        """
        entry = self._disc_cache.get(dt) or self._entry(dt)  # a hit costs one read
        if entry[2] is None:
            Phi, Qd = entry[0]
            entry[2] = (Phi.T @ Phi, float(np.trace(Qd)))
        return entry[2]

    def noise_factor(self, dt: float) -> np.ndarray | None:
        """A factor F with F F^T = Qd over length dt (``dynamics._noise_factor``
        of Qd), memoized with ``discretize``; None when Qd is zero.  Raises
        NumericError when Qd is not positive semi-definite."""
        entry = self._entry(dt)
        if entry[3] is None and entry[0][1].any():
            entry[3] = dynamics._noise_factor(entry[0][1])
        return entry[3]

    def _entry(self, dt: float) -> list:
        """The cache entry of length dt; a miss goes through ``discretize``."""
        entry = self._disc_cache.get(dt)
        if entry is None:
            self.discretize(dt)
            entry = self._disc_cache[dt]
        return entry
