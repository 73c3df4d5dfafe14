"""Continuous-time LTI plant description shared by the estimator and scheduler."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .errors import ConfigError, DimensionError, DomainError

__all__ = ["SystemModel", "check_covariance"]

_SYM_TOL = 1e-10
_PSD_TOL = -1e-10

# Most interval lengths SystemModel.discretize keeps memoized.
DISC_CACHE_SIZE = 1024


def check_covariance(name: str, M: np.ndarray) -> None:
    """Raise DomainError unless the square matrix M is finite, symmetric
    within ``_SYM_TOL`` and positive semi-definite within ``_PSD_TOL``."""
    if not np.all(np.isfinite(M)):
        raise DomainError(f"{name} contains non-finite entries")
    if np.abs(M - M.T).max() > _SYM_TOL:
        raise DomainError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(dynamics.symmetrize(M)).min() < _PSD_TOL:
        raise DomainError(f"{name} must be positive semi-definite")


@dataclass(frozen=True)
class SystemModel:
    """LTI plant x' = Ax + Bu + v, y = Cx + w with periodic sampling.

    A is S x S, B is S x M, C is N x S (one row per observer), Q is the S x S
    process-noise intensity, R the N x N observation-noise covariance
    (diagonal required: the per-observation scalar updates use only the
    per-observer variance and would be wrong for cross-correlated noise).
    T is the decision period and ``observer_periods`` holds the N sampling
    periods.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    T: float
    observer_periods: tuple[float, ...]
    _disc_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
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
        if Q.shape != (S, S):
            raise DimensionError(f"Q must be {S}x{S}, got {Q.shape}")
        if R.shape != (N, N):
            raise DimensionError(f"R must be {N}x{N}, got {R.shape}")
        check_covariance("Q", Q)
        if R.size and np.abs(R - np.diag(np.diag(R))).max() > 0.0:
            raise ConfigError(
                "R must be diagonal: per-observation scalar updates assume "
                "uncorrelated observation noise"
            )
        if np.any(np.diag(R) < 0.0):
            raise DomainError("R must have a nonnegative diagonal")
        if not self.T > 0.0:
            raise DomainError(f"decision period T must be > 0, got {self.T}")
        if len(periods) != N:
            raise DimensionError(
                f"need one observer period per C row ({N}), got {len(periods)}"
            )
        if any(not p > 0.0 for p in periods):
            raise DomainError("all observer periods must be > 0")

        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "observer_periods", periods)

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
        """Row of C for observer n, as a 1-D vector."""
        return self.C[n, :]

    def obs_var(self, n: int) -> float:
        """Observation-noise variance of observer n."""
        return float(self.R[n, n])

    def discretize(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(Phi, Qd) over an interval of length dt >= 0, memoized per length.

        The plant is time-invariant, so both depend only on dt.  The cache
        keeps the ``DISC_CACHE_SIZE`` lengths added last; a full cache
        evicts the one added first.
        """
        entry = self._disc_cache.get(dt)
        if entry is None:
            if len(self._disc_cache) >= DISC_CACHE_SIZE:
                del self._disc_cache[next(iter(self._disc_cache))]
            entry = self._disc_cache[dt] = [
                dynamics.phi(self.A, 0.0, dt), dynamics.noise_cov(self.A, self.Q, 0.0, dt), None
            ]
        return entry[0], entry[1]

    def input_lambda(self, dt: float) -> np.ndarray:
        """ZOH input matrix Lambda over length dt, memoized with ``discretize``."""
        self.discretize(dt)
        entry = self._disc_cache[dt]
        if entry[2] is None:
            entry[2] = dynamics.input_integral(self.A, self.B, 0.0, dt)
        return entry[2]
