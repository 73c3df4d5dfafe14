"""Multirate Kalman machinery: observation timetables, covariance operators,
sequence MSE, and state-estimate propagation/update.

Covariance bookkeeping follows three operators: predict a posteriori ->
a priori over an interval, a scalar measurement update, and their
composition (a posteriori -> a posteriori), plus prediction to the cycle
boundary.  The predicted MSE of an observation sequence is the trace of
the boundary-predicted covariance at the end of its covariance chain.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import symmetrize
from .errors import ConfigError, DomainError, OrderingError
from .model import SystemModel

__all__ = [
    "Observation",
    "first_obs_timestamp",
    "cycle_candidates",
    "predict_cov",
    "scalar_update_cov",
    "g_step",
    "sequence_mse",
    "propagate_estimate",
    "update_estimate",
]

# Relative epsilon for floating-point comparisons on the sampling grid.
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class Observation:
    """One representative observation: who produced it and when."""

    observer: int
    timestamp: float


def first_obs_timestamp(T: float, T_n: float, k: int) -> float | None:
    """Timestamp of observer's first observation in decision cycle k (>= 1).

    Three period regimes:
      T_n = T  ->  (k-1) T
      T_n < T  ->  ceil((k-1) T / T_n) T_n
      T_n > T  ->  floor(k T / T_n) T_n, or None when that grid point
                   falls more than T before the cycle end.
    """
    if not (T > 0.0 and T_n > 0.0):
        raise DomainError(f"periods must be positive, got T={T}, T_n={T_n}")
    if k < 1:
        raise DomainError(f"cycle index must be >= 1, got {k}")
    if abs(T_n - T) <= _GRID_EPS * T:
        return (k - 1) * T
    if T_n < T:
        m = math.ceil((k - 1) * T / T_n - _GRID_EPS)
        return _snap_to_boundary(m * T_n, T)
    m = math.floor(k * T / T_n + _GRID_EPS)
    t = _snap_to_boundary(m * T_n, T)
    # Half-open membership ((k-1)T, kT]: a grid point landing exactly on a
    # cycle boundary is the earlier cycle's end, never the later one's start
    # (otherwise the same observation would appear in two cycles).
    if (k - 1) * T < t <= k * T:
        return t
    return None


def _snap_to_boundary(t: float, T: float) -> float:
    """Snap t onto the nearest multiple of T when within rounding slop, so
    boundary grid points compare exactly against cycle edges."""
    b = round(t / T)
    return b * T if abs(t - b * T) <= _GRID_EPS * T else t


def cycle_candidates(model: SystemModel, k: int) -> list[Observation]:
    """Representative observations available in cycle k, one per observer
    that produces one; unordered (ordering is the scheduler's job)."""
    out = []
    for n in range(model.n_observers):
        t = first_obs_timestamp(model.T, model.observer_periods[n], k)
        if t is not None:
            out.append(Observation(observer=n, timestamp=t))
    return out


def predict_cov(model: SystemModel, P: np.ndarray, t_i: float, t_j: float) -> np.ndarray:
    """A posteriori -> a priori: Phi P Phi^T + Q over [t_i, t_j], symmetrized."""
    if t_i > t_j:
        raise OrderingError(f"predict_cov requires t_i <= t_j, got {t_i}, {t_j}")
    Phi, Qd = model.discretize(t_j - t_i)
    return symmetrize(Phi @ P @ Phi.T + Qd)


def scalar_update_cov(P: np.ndarray, c: np.ndarray, r_j: float) -> np.ndarray:
    """Posterior covariance of a scalar measurement update: P - (1/e) P c c^T P
    with innovation variance e = c^T P c + r_j.  P must be symmetric (as
    ``predict_cov`` output is), which makes the result exactly symmetric."""
    if not r_j > 0.0:
        raise DomainError(f"observation-noise variance must be > 0, got {r_j}")
    c = np.asarray(c, dtype=float).reshape(-1)
    Pc = P @ c
    e = float(c @ Pc + r_j)
    return P - np.outer(Pc, Pc) / e


def g_step(
    model: SystemModel, P: np.ndarray, t_i: float, t_j: float, observer: int
) -> np.ndarray:
    """A posteriori -> a posteriori: predict over [t_i, t_j], then update
    with the given observer's row."""
    prior = predict_cov(model, P, t_i, t_j)
    return scalar_update_cov(prior, model.obs_row(observer), model.obs_var(observer))


def sequence_mse(
    model: SystemModel,
    P0: np.ndarray,
    t0: float,
    seq: Sequence,
    kT: float,
) -> tuple[float, np.ndarray]:
    """Predicted boundary MSE of an observation sequence and its running
    covariance.

    The running covariance is the composed update chain applied to ``P0``
    (``P0`` itself for the empty sequence); the MSE is the trace of that
    covariance predicted to ``kT`` from the last observation time (from
    ``t0`` for the empty sequence).  Timestamps must be non-decreasing
    along the sequence and lie in [t0, kT]; simultaneous observations from
    distinct observers are allowed (zero-length predict between updates).
    Only ``.observer`` and ``.timestamp`` of each element are read, so an
    :class:`Observation` or a ``scheduler.Candidate`` serves.
    """
    cov = np.asarray(P0, dtype=float)
    t_prev = t0
    for obs in seq:
        if obs.timestamp < t_prev or obs.timestamp > kT:
            raise OrderingError(
                f"observation at t={obs.timestamp} outside [{t_prev}, {kT}]"
            )
        cov = g_step(model, cov, t_prev, obs.timestamp, obs.observer)
        t_prev = obs.timestamp
    mse = float(np.trace(predict_cov(model, cov, t_prev, kT)))
    return mse, cov


def _segments(s: float, t: float, T: float):
    """Split [s, t] at decision-cycle boundaries; yields (a, b, cycle)."""
    eps = _GRID_EPS * T
    a = s
    while a < t - eps:
        j = math.floor((a + eps) / T)
        b = min((j + 1) * T, t)
        yield a, b, j
        a = b
    if s == t:
        yield s, t, math.floor((s + eps) / T)


def propagate_estimate(
    model: SystemModel,
    xhat: np.ndarray,
    inputs: Mapping[int, np.ndarray] | None,
    s: float,
    t: float,
) -> np.ndarray:
    """Mean state propagation under the ZOH input u(tau) = u[floor(tau/T)].

    ``inputs`` maps cycle index -> action vector; ``None`` means zero input
    everywhere.  A missing entry for a covered cycle raises
    :class:`ConfigError`.  No process noise: this is the estimate's mean.
    """
    if s > t:
        raise OrderingError(f"propagate_estimate requires s <= t, got {s}, {t}")
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    if inputs is None:
        Phi, _ = model.discretize(t - s)
        return Phi @ xhat
    x = xhat
    for a, b, j in _segments(s, t, model.T):
        if j not in inputs:
            raise ConfigError(f"no input vector provided for cycle segment {j}")
        u = np.asarray(inputs[j], dtype=float).reshape(-1)
        Phi, _ = model.discretize(b - a)
        x = Phi @ x + model.input_lambda(b - a) @ u
    return x


def update_estimate(
    xhat: np.ndarray, P: np.ndarray, y: float, c: np.ndarray, r_j: float
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar Kalman update of the estimate (xhat, P) with measurement y:
    returns (xhat + K (y - c^T xhat), scalar_update_cov(P, c, r_j)) with
    gain K = Pc/e and innovation variance e = c^T P c + r_j."""
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    posterior = scalar_update_cov(P, c, r_j)
    Pc = P @ c
    gain = Pc / float(c @ Pc + r_j)
    return xhat + gain * (y - float(c @ xhat)), posterior
