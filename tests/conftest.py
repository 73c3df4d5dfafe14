"""Shared fixtures and oracle helpers for the ospkit test suite."""
from __future__ import annotations

import random

import mpmath
import numpy as np
import pytest

from ospkit import Candidate, CycleContext, SystemModel, is_schedulable

# Reference 3-state plant used throughout (flexible-link drive with a fast
# actuator mode at -1000 and two coupled slow modes).
A3 = np.array([[-10.0, 1.0, 0.0], [-0.02, -2.0, 156.3], [0.0, 0.0, -1000.0]])
B3 = np.array([[0.0], [0.0], [64.0]])
Q3 = 1e-2 * np.eye(3)
T3 = 0.01

# Two observation geometries for the 6-observer experiments: C_AXES reads
# single states (pairs of duplicated rows), C_MIX couples every state into
# every observation.
C_AXES = np.array(
    [[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.0]]
)
C_MIX = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0],
    ]
)

SIGMA0_SQ = 1e-2
SIGMA1_SQ = 1.0


def make_model(C, R, periods, *, A=A3, B=B3, Q=Q3, T=T3) -> SystemModel:
    C = np.atleast_2d(np.asarray(C, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    return SystemModel(
        A=np.asarray(A, dtype=float),
        B=np.asarray(B, dtype=float),
        C=C,
        Q=np.asarray(Q, dtype=float),
        R=R,
        T=float(T),
        observer_periods=tuple(float(p) for p in periods),
    )


def plant(A, Q, B=None) -> SystemModel:
    """One-observer model over the plant (A, Q, B), the checked entry to its
    operators ``discretize`` and ``input_lambda``.  B defaults to one zero
    input column."""
    n = np.atleast_2d(A).shape[0]
    B = np.zeros((n, 1)) if B is None else B
    return make_model(np.ones((1, n)), [[1.0]], (1.0,), A=A, B=B, Q=Q, T=1.0)


def scalar_model(a=0.0, b=1.0, q=0.0, r=1e-2, T=1.0, period=1.0) -> SystemModel:
    return make_model(
        [[1.0]], [[r]], (period,), A=[[a]], B=[[b]], Q=[[q]], T=T
    )


def make_search_model() -> SystemModel:
    """10-observer model over the reference plant, with a cold cache."""
    rng = np.random.default_rng(7)
    C = rng.normal(size=(10, 3))
    R = np.diag(rng.uniform(1e-3, 1.0, size=10))
    return make_model(C, R, (T3,) * 10)


@pytest.fixture(scope="session")
def search_model() -> SystemModel:
    """``make_search_model()`` shared by the search/oracle tests."""
    return make_search_model()


def make_dup_model() -> SystemModel:
    """16 observers in duplicated pairs of C rows; every third observer has
    noise variance 1e12, so many subsets tie within MSE_TIE_RTOL.  The
    cache is cold."""
    rng = np.random.default_rng(17)
    C = np.repeat(rng.normal(size=(8, 3)), 2, axis=0)
    r = rng.uniform(1e-3, 1.0, size=16)
    r[::3] = 1e12
    return make_model(C, np.diag(r), (T3,) * 16)


@pytest.fixture(scope="session")
def dup_model() -> SystemModel:
    """``make_dup_model()`` shared by the search/oracle tests."""
    return make_dup_model()


def random_context(rng, model, L=None, k=None, *, loose=False, ties=False) -> CycleContext:
    """Random schedulable-or-not instance: sorted timestamps inside the
    cycle, positive airtimes of 5-40% of T, a random action load.

    ``loose`` puts the timestamps in the first 60% of the cycle and draws
    airtimes of 0.2-0.5% of T, so every subset is schedulable.  ``ties``
    puts the timestamps on a 4-point grid, so several coincide.  Observers
    repeat only when L exceeds the model's observer count."""
    if L is None:
        L = int(rng.integers(1, 11))
    if k is None:
        k = int(rng.integers(1, 50))
    T = model.T
    lo, hi = (k - 1) * T, (k - 1 + 0.6) * T if loose else k * T
    if ties:
        ts = np.sort(lo + (hi - lo) * rng.integers(0, 4, size=L) / 4)
    else:
        ts = np.sort(rng.uniform(lo, hi, size=L))
    observers = rng.choice(model.n_observers, size=L, replace=L > model.n_observers)
    order = np.lexsort((observers, ts))
    air_lo, air_hi = (0.002, 0.005) if loose else (0.05, 0.4)
    cands = tuple(
        Candidate(timestamp=float(ts[i]), airtime=float(rng.uniform(air_lo, air_hi) * T), observer=int(observers[i]))
        for i in order
    )
    actions = tuple(float(a) for a in rng.uniform(0.0, 0.15 * T, size=int(rng.integers(0, 3))))
    return CycleContext(
        candidates=cands,
        action_airtimes=actions,
        T=T,
        cycle_index=k,
        t0=float(lo),
        prior_cov=np.eye(model.n_states),
    )


def make_mid_model() -> SystemModel:
    """32 observers over the reference plant, C rows N(0, 1) and noise
    variances U(1e-3, 1) from ``random.Random(16)``; the cache is cold."""
    rng = random.Random(16)
    C = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(32)]
    R = np.diag([rng.uniform(1e-3, 1.0) for _ in range(32)])
    return make_model(C, R, (T3,) * 32)


def mid_context(rng, model, L) -> CycleContext:
    """An instance between loose and tight, where the winner holds about half
    of the L candidates: timestamps across the whole cycle, distinct
    observers, airtimes U(0.02, 0.12) T and 0-2 actions of U(0, 0.15 T)."""
    T = model.T
    k = int(rng.integers(1, 50))
    lo = (k - 1) * T
    ts = np.sort(rng.uniform(lo, lo + T, size=L))
    observers = rng.choice(model.n_observers, size=L, replace=False)
    order = np.lexsort((observers, ts))
    cands = tuple(
        Candidate(float(ts[i]), float(rng.uniform(0.02, 0.12) * T), int(observers[i]))
        for i in order
    )
    actions = tuple(float(a) for a in rng.uniform(0.0, 0.15 * T, size=int(rng.integers(0, 3))))
    return CycleContext(
        candidates=cands, action_airtimes=actions, T=T, cycle_index=k, t0=float(lo),
        prior_cov=np.eye(model.n_states),
    )


def schedulable_count(ctx) -> int:
    """How many non-empty sequences of ``ctx`` are schedulable, by
    enumeration with ``is_schedulable``.  Every prefix of a schedulable
    sequence is schedulable, so extending only schedulable ones finds
    them all."""
    count, stack = 0, [()]
    while stack:
        seq = stack.pop()
        for j in range(seq[-1] + 1 if seq else 0, ctx.L):
            if is_schedulable(seq + (j,), ctx):
                count += 1
                stack.append(seq + (j,))
    return count


def harvest_closed_form(seq, ctx) -> float:
    """Independent oracle for the end-of-harvest time: with relative offsets
    o_i and airtimes O_i over the chosen subsequence, the drain ends at
    max_i (o_i + sum of airtimes from i onward)."""
    seq = tuple(seq)
    if not seq:
        return 0.0
    offs = [ctx.candidates[i].timestamp - ctx.cycle_start for i in seq]
    airs = [ctx.candidates[i].airtime for i in seq]
    best = -np.inf
    for i in range(len(seq)):
        best = max(best, offs[i] + sum(airs[i:]))
    return float(best)


def first_obs_grid_oracle(T, T_n, k):
    """Timetable oracle: enumerate the sampling grid m * T_n directly
    instead of using the ceil/floor closed forms.  Grid points within
    1e-9 T of a cycle boundary snap to it; slow observers (T_n > T) own
    boundary points as cycle *ends* (half-open on the left), fast ones own
    the cycle start."""
    import math

    tol = 1e-9 * T
    lo, hi = (k - 1) * T, k * T
    m_hi = int(math.ceil(hi / T_n)) + 2
    pts = []
    for m in range(0, m_hi + 1):
        p = m * T_n
        b = round(p / T)
        if abs(p - b * T) <= tol:
            p = b * T
        pts.append(p)
    if T_n <= T + tol:
        hits = [p for p in pts if lo <= p < hi]
    else:
        hits = [p for p in pts if lo < p <= hi]
    return min(hits) if hits else None


def random_stable_system(rng, n):
    """Random Hurwitz A (spectrum shifted left of the imaginary axis) and a
    random PSD Q of matching size."""
    M = rng.normal(size=(n, n))
    shift = max(np.real(np.linalg.eigvals(M)).max(), 0.0) + rng.uniform(0.1, 1.0)
    A = M - shift * np.eye(n)
    G = rng.normal(size=(n, n))
    Q = G @ G.T / n
    return A, Q


def mp_phi(A, d: float, dps: int = 40) -> np.ndarray:
    """Reference e^{A d}: mpmath's exponential at ``dps`` digits, rounded
    once to float.  Independent of scipy and of ``SystemModel``."""
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(np.asarray(A, dtype=float).tolist()) * mpmath.mpf(d))
        return np.array(E.tolist(), dtype=float)


def mp_noise_cov(A, Q, d: float, dps: int = 80) -> np.ndarray:
    """Reference int_0^d e^{A u} Q e^{A^T u} du: the Van Loan block
    exponential in mpmath at ``dps`` digits, in one step.  F22^T F12
    cancels at most about 2 ||A|| d / ln 10 digits, which ``dps`` covers for the
    reference plant up to d = 0.05."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = -A
    aug[:n, n:] = Q
    aug[n:, n:] = A.T
    with mpmath.workdps(dps):
        F = mpmath.expm(mpmath.matrix(aug.tolist()) * mpmath.mpf(d))
        return np.array((F[n:, n:].T * F[:n, n:]).tolist(), dtype=float)
