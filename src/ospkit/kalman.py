"""Multirate Kalman machinery: the observation timetable and its ``Candidate``
records, covariance operators, sequence MSE, and state-estimate propagation/update.

Covariance bookkeeping follows three operators: predict a posteriori ->
a priori over an interval, a scalar measurement update, and their
composition (a posteriori -> a posteriori), plus prediction to the cycle
boundary.  The predicted MSE of an observation sequence is the trace of
the boundary-predicted covariance at the end of its covariance chain.
Covariances are never mutated in place: each operator returns a new
array, except that a zero-length predict returns its input.

The update arithmetic is written once, in the unchecked kernel
``_update``.  ``g_step``, the covariance step of every chain the
policies report, feeds it the row and variance that ``SystemModel``
checked and stores, so it checks nothing per step; ``update_estimate``,
the checked entry, checks the variance and then runs the same kernel.
Every operator over an interval is read from the model by the
interval's length.  Both predict and update multiply with
``ndarray.dot``, which gives the bits of ``@`` for less dispatch.
``_stacked_predictor`` and ``_update_rows`` are the stacked forms of
predict and update, over many covariances at once, with which
``scheduler.bnb_search`` sweeps its rows.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import symmetrize
from .errors import DimensionError, DomainError, OrderingError
from .model import SystemModel

__all__ = [
    "Candidate",
    "first_obs_timestamp",
    "cycle_candidates",
    "predict_cov",
    "g_step",
    "sequence_mse",
    "propagate_estimate",
    "update_estimate",
]

# Relative epsilon for floating-point comparisons on the sampling grid.
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class Candidate:
    """One harvestable observation: absolute timestamp, airtime, observer id."""

    timestamp: float
    airtime: float
    observer: int


def _cycle_index(name: str, k) -> None:
    """The one check of a cycle index or count k: an integer >= 1, not a
    bool (numpy integers pass); DomainError names ``name`` and k.  A plain
    int skips the ``numbers.Integral`` test, which costs far more."""
    if (type(k) is not int and (isinstance(k, bool) or not isinstance(k, numbers.Integral))
            or k < 1):
        raise DomainError(f"{name} must be an integer >= 1, got {k!r}")


def _observer_id(n, N: int | None = None) -> None:
    """The one check of an observer id n: an integer >= 0, not a bool
    (numpy integers pass), and < N when the observer count N is given;
    DomainError otherwise.  A plain int skips the ``numbers.Integral``
    test, which costs far more."""
    if (type(n) is not int and (isinstance(n, bool) or not isinstance(n, numbers.Integral))
            or n < 0):
        raise DomainError(f"candidate observer ids must be integers >= 0, got {n!r}")
    if N is not None and n >= N:
        raise DomainError(
            f"candidate observer ids must be < {N}, the model's observer count, got {n}"
        )


def first_obs_timestamp(T: float, T_n: float, k: int) -> float | None:
    """Timestamp of observer's first observation in decision cycle k (>= 1).

    Three period regimes:
      T_n = T  ->  (k-1) T
      T_n < T  ->  ceil((k-1) T / T_n) T_n
      T_n > T  ->  floor(k T / T_n) T_n, or None when that grid point
                   falls more than T before the cycle end.
    """
    if not (0.0 < T < math.inf and 0.0 < T_n < math.inf):
        raise DomainError(f"periods must be finite and > 0, got T={T}, T_n={T_n}")
    _cycle_index("cycle index", k)
    return _first_obs(T, T_n, k)


def _first_obs(T: float, T_n: float, k: int) -> float | None:
    """``first_obs_timestamp``'s arithmetic on periods and a cycle index
    that the caller checked; it checks nothing."""
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


def cycle_candidates(model: SystemModel, k: int, airtimes) -> list[Candidate]:
    """Cycle k's candidates, one per observer with an observation in it,
    observer n with airtime ``airtimes[n]``; unordered (``CycleContext`` orders them).
    ``airtimes`` needs one entry per observer, or DimensionError is raised.
    k is checked once (``_cycle_index``), and each timestamp is
    ``first_obs_timestamp``'s, from its unchecked kernel ``_first_obs``:
    ``SystemModel`` checked T and the periods."""
    if len(airtimes) != model.n_observers:
        raise DimensionError(
            f"need one airtime per observer ({model.n_observers}), got {len(airtimes)}"
        )
    _cycle_index("cycle index", k)
    T, out = model.T, []
    for n, T_n in enumerate(model.observer_periods):
        t = _first_obs(T, T_n, k)
        if t is not None:
            out.append(Candidate(t, float(airtimes[n]), n))
    return out


def predict_cov(model: SystemModel, P: np.ndarray, t_i: float, t_j: float) -> np.ndarray:
    """A posteriori -> a priori: Phi P Phi^T + Q over [t_i, t_j], symmetrized,
    with the (Phi, Qd) of ``model.discretize(t_j - t_i)``, the length's
    exponential.

    A zero-length interval returns ``P`` itself: for a symmetric P, as
    every anchor (``model.check_covariance``) and every operator result
    here is, the formula with Phi = I and Qd = 0 gives the same bits.  No
    operator writes into a covariance in place, so the alias is safe.
    """
    if t_j == t_i:
        return P
    Phi, Qd = model.discretize(t_j - t_i)
    return symmetrize(Phi.dot(P).dot(Phi.T) + Qd)


def _update(P: np.ndarray, c: np.ndarray, r: float):
    """The scalar-update kernel: (P - Pc (Pc)^T / e, Pc, e), with Pc = P c
    and innovation variance e = c^T P c + r, for a symmetric float S x S P,
    a 1-D float row c of length S and a variance r > 0, none of
    which it checks.  The outer product is ``Pc[:, None] * Pc``, the bits
    of ``np.outer`` without its call overhead, and the result is exactly
    symmetric."""
    Pc = P.dot(c)
    e = float(c.dot(Pc)) + r
    return P - Pc[:, None] * Pc / e, Pc, e


# The stacked kernels below step R covariances at once, each flattened to
# a row of an R x S^2 array.  Their sums run in another order than the 2-D
# kernels' (the BLAS dot fuses multiply-adds), so their rows agree with
# ``predict_cov`` and ``_update`` to rounding, not bit for bit; the search
# ranks and bounds with them and reports its answer through the 2-D ones.

def _stacked_predictor(Phi: np.ndarray, Qd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, q) with ``rows.dot(K) + q`` the rows of Phi P Phi^T + Qd: K is
    Phi (x) Phi transposed, its columns of (a, b) and (b, a) averaged, so
    that every row comes out exactly symmetric, as ``symmetrize`` makes it."""
    n = Phi.shape[0]
    K = Phi[:, None, :, None] * Phi[None, :, None, :]  # [a, b, k, l] = Phi_ak Phi_bl
    return ((K + K.transpose(1, 0, 2, 3)) / 2.0).reshape(n * n, n * n).T, Qd.ravel()


def _update_rows(rows: np.ndarray, c: np.ndarray, r: float) -> np.ndarray:
    """``_update``'s posterior of each row of a stack of flattened
    symmetric covariances, exactly symmetric, unchecked."""
    n = len(c)
    Pc = rows.reshape(-1, n).dot(c).reshape(-1, n)
    e = Pc.dot(c) + r
    return rows - (Pc[:, :, None] * Pc[:, None, :]).reshape(len(rows), -1) / e[:, None]


def g_step(
    model: SystemModel, P: np.ndarray, t_i: float, t_j: float, observer: int
) -> np.ndarray:
    """A posteriori -> a posteriori: ``predict_cov`` over [t_i, t_j], then
    the update with the given observer's row.

    The search's covariance step, so it checks nothing itself: the
    interval is checked by ``model.discretize`` when it is not cached, and
    the row and variance were checked by ``SystemModel``, which stores
    them; the update runs the kernel ``_update`` directly.  It does not
    check the observer id either: the callers did (``sequence_mse``,
    ``scheduler.CycleContext`` and ``scheduler._check_instance``).  It has
    the bits of ``update_estimate``'s posterior after ``predict_cov``."""
    prior = predict_cov(model, P, t_i, t_j)
    return _update(prior, model.obs_row(observer), model.obs_var(observer))[0]


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
    Only ``.observer`` and ``.timestamp`` of each element are read.  An
    observer id that is not an integer >= 0 and < N, for the model's N
    observers, raises DomainError (``_observer_id``).
    """
    seq = tuple(seq)  # read twice: by the check, then by the chain
    for obs in seq:
        _observer_id(obs.observer, model.n_observers)
    boundary, cov = _sequence_boundary(model, np.asarray(P0, dtype=float), t0, seq, kT)
    return float(boundary.trace()), cov


def _sequence_boundary(model, P0, t0, seq, kT) -> tuple[np.ndarray, np.ndarray]:
    """``sequence_mse`` before the trace: (the running covariance predicted
    to ``kT``, the running covariance), for a float array ``P0``, which it
    does not convert.  The first is the covariance at the cycle boundary,
    which ``sim.decision_cycles`` carries as the next cycle's anchor."""
    cov, t_prev = P0, t0
    for obs in seq:
        t = obs.timestamp
        if t < t_prev or t > kT:
            raise OrderingError(f"observation at t={t} outside [{t_prev}, {kT}]")
        cov = g_step(model, cov, t_prev, t, obs.observer)
        t_prev = t
    return predict_cov(model, cov, t_prev, kT), cov


def propagate_estimate(
    model: SystemModel,
    xhat: np.ndarray,
    u: np.ndarray | None,
    s: float,
    t: float,
) -> np.ndarray:
    """Mean state propagation over [s, t] under the zero-order-hold input
    ``u`` (``None`` means zero input): Phi xhat + Lambda u.  The interval
    lies inside one decision cycle, whose action vector is held over it.
    No process noise: this is the estimate's mean.  A zero-length
    interval returns ``xhat`` as a flat float array, as ``predict_cov``
    returns its input covariance.
    """
    x = np.asarray(xhat, dtype=float).reshape(-1)
    if s == t:
        return x
    Phi, _ = model.discretize(t - s)
    x = Phi @ x
    if u is None:
        return x
    return x + model.input_lambda(t - s) @ np.asarray(u, dtype=float).reshape(-1)


def update_estimate(
    xhat: np.ndarray, P: np.ndarray, y: float, c: np.ndarray, r_j: float
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar Kalman update of the estimate (xhat, P) with measurement y:
    returns (xhat + K (y - c^T xhat), P - Pc (Pc)^T / e) with Pc = P c,
    gain K = Pc/e and innovation variance e = c^T P c + r_j, which share
    one Pc and one e from ``_update``.  P must be symmetric, as
    ``predict_cov`` output is, which makes the posterior exactly
    symmetric.  The checked entry to the update: DomainError unless
    r_j > 0 (NaN fails)."""
    if not r_j > 0.0:
        raise DomainError(f"observation-noise variance must be > 0, got {r_j}")
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    posterior, Pc, e = _update(np.asarray(P, dtype=float), c, r_j)
    return xhat + Pc / e * (y - float(c @ xhat)), posterior
