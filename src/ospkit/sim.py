"""Cycle-by-cycle closed-loop simulation.

Each decision cycle: draw airtimes, build the candidate table, compute the
harvesting budget and run the selected policy.  Then one walk in time
order over the candidate timestamps and the cycle end: the true state
steps to each new one with sampled process noise, and at each chosen
candidate an observation value is synthesized from the state just reached
and fused into the executive's estimate at once, with the gain the
policy's covariance chain recorded for it (``ScheduleEvaluation.gains``):
the fusion's covariance is the chain the policy scored, so the walk does
no covariance arithmetic.  The estimate is then predicted to the cycle
end, and predicted versus realized error is logged there.

Separate RNG streams are used for process noise, observation noise, and
the channel, so two policies run on the same seed experience the same
true-state trajectory and the same airtimes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, kalman, scheduler
from .errors import ConfigError, DimensionError, DomainError, NumericError
from .model import SystemModel, check_covariance

__all__ = [
    "ChannelConfig",
    "CycleLog",
    "decision_cycles",
    "sample_airtimes",
    "step_true_state",
    "run_simulation",
    "selection_stats",
]

# Stream tags: keep the three noise roles on independent substreams.
_CHANNEL_TAG = 101
_PROCESS_TAG = 102
_OBS_NOISE_TAG = 103


@dataclass(frozen=True)
class ChannelConfig:
    """Per-cycle block-fading airtimes: one uniform draw per observer and
    per action per cycle, or an explicit trace bypassing randomness.

    ``obs_airtime`` / ``action_airtime`` hold (lo, hi) bounds per observer
    and per action.  ``trace`` is an optional tuple of rows, the k-th for
    cycle k, each the per-observer airtimes followed by the per-action
    airtimes.  ``seed`` must be an int >= 0, not a bool, and every airtime
    and bound finite, observations > 0, actions >= 0 and lo <= hi, or
    construction (``dataclasses.replace`` included) raises ConfigError.
    """

    obs_airtime: tuple[tuple[float, float], ...]
    action_airtime: tuple[tuple[float, float], ...]
    seed: int = 0
    trace: tuple[tuple[float, ...], ...] | None = None
    # (lo, hi - lo) of the observer bounds, then of the action bounds, as
    # two arrays, and the seed's 32-bit words (``_words``), for
    # sample_airtimes.
    _bounds: tuple = field(init=False, repr=False, compare=False)
    _seed_words: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"channel.seed: must be an integer >= 0, got {self.seed!r}")
        # Trace rows first, so a trace config names its bad row rather than
        # the (min, max) bounds derived from it.
        n_obs = len(self.obs_airtime)
        want = n_obs + len(self.action_airtime)
        for i, row in enumerate(self.trace or (), start=1):
            if not (len(row) == want and all(0.0 < v < math.inf for v in row[:n_obs])
                    and all(0.0 <= v < math.inf for v in row[n_obs:])):
                raise ConfigError(
                    f"trace row {i}: need {want} finite airtimes, observations > 0 "
                    f"and actions >= 0, got {tuple(row)}"
                )
        for lo, hi in self.obs_airtime:
            if not 0.0 < lo <= hi < math.inf:
                raise ConfigError(
                    f"obs airtime bounds must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})"
                )
        for lo, hi in self.action_airtime:
            if not 0.0 <= lo <= hi < math.inf:
                raise ConfigError(
                    f"action airtime bounds must satisfy 0 <= lo <= hi < inf, got ({lo}, {hi})"
                )
        lo, hi = np.array([*self.obs_airtime, *self.action_airtime], dtype=float).reshape(-1, 2).T
        object.__setattr__(self, "_bounds", (lo, hi - lo))
        object.__setattr__(self, "_seed_words", tuple(_words(self.seed)))


def _words(n: int) -> list[int]:
    """The 32-bit words of an integer n >= 0, least significant first, as
    ``np.random.SeedSequence`` splits an int of its entropy (0 is one word)."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def sample_airtimes(cfg: ChannelConfig, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Airtimes for cycle k: (per-observer, per-action).

    Deterministic under (seed, k): the draws are those of
    ``np.random.default_rng([seed, k, _CHANNEL_TAG])``.  The generator is
    seeded with the same entropy as a ``np.uint32`` array, the seed's
    words (kept by the config), k's, then the tag's, which ``SeedSequence``
    takes as it is instead of splitting each int again.  With a trace
    configured, row k-1 is used instead of random draws.  A cycle index
    that is not an integer >= 1 (a bool included) or is past the trace's
    last row raises DomainError.
    """
    kalman._cycle_index("cycle index", k)
    if cfg.trace is not None and k > len(cfg.trace):
        raise DomainError(f"cycle {k} is past the trace's {len(cfg.trace)} rows")
    n_obs = len(cfg.obs_airtime)
    if cfg.trace is not None:
        row = cfg.trace[k - 1]
        return np.asarray(row[:n_obs]), np.asarray(row[n_obs:])
    rng = np.random.default_rng(
        np.array((*cfg._seed_words, *_words(k), _CHANNEL_TAG), dtype=np.uint32)
    )
    # One draw for all entries, scaled as Generator.uniform scales each
    # (lo + (hi - lo) * u), so the bits are those of one uniform call per
    # entry.  Generator.uniform over arrays gives the same bits, but its
    # fixed cost makes it slower than per-entry calls for a few entries.
    lo, span = cfg._bounds
    draws = lo + span * rng.random(len(lo))
    return draws[:n_obs], draws[n_obs:]


def step_true_state(
    model: SystemModel,
    x: np.ndarray,
    u: np.ndarray | None,
    s: float,
    t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact-discretization step of the true state over [s, t], inside one
    cycle: mean part via the ZOH propagation under ``u``, noise part drawn
    with covariance Q(s, t), from the factor the model keeps per length,
    unless Q(s, t) is zero."""
    mean = kalman.propagate_estimate(model, x, u, s, t)
    F = None if s == t else model.noise_factor(t - s)
    if F is None:
        return mean
    return mean + F @ rng.standard_normal(model.n_states)


@dataclass(frozen=True)
class CycleLog:
    """Per-cycle simulation record.  ``t0``/``prior_cov`` are the cycle's
    covariance anchor: the cycle start (k-1)T and the covariance there."""

    cycle: int
    policy: str
    candidates: tuple[scheduler.Candidate, ...]
    seq: tuple[int, ...]
    end_of_harvest: float
    budget: float
    mse_pred: float
    sq_err: float
    true_state: np.ndarray
    est_state: np.ndarray
    nodes_visited: int
    t0: float = 0.0
    prior_cov: np.ndarray = field(default=None, repr=False)


def decision_cycles(
    model: SystemModel, channel: ChannelConfig, policy: str, initial_cov: np.ndarray,
    cycles: int,
) -> Iterator[tuple[scheduler.CycleContext, scheduler.ScheduleEvaluation]]:
    """Yield (instance, policy's evaluation) for cycles k = 1 .. ``cycles``:
    the decision steps of ``run_simulation`` and ``ospkit oracle``.

    The covariance anchor is the cycle start: (t0 = 0, P = initial_cov),
    then after cycle k (kT, ``ev.boundary_cov``: ``ev.running_cov``
    predicted to kT from the last harvested timestamp, or from (k-1)T),
    whose trace is ``ev.mse``.  So every interval lies inside one cycle,
    and the work per cycle does not grow with k.  The run is checked when
    this is called, before cycle 1: a cycle count that is not an integer
    >= 1 (a bool included), an unknown policy, a channel whose observer
    count differs from the model's, an airtime trace shorter than the run,
    or an ``initial_cov`` that is not a finite, symmetric, positive
    semi-definite S x S matrix raises ConfigError.  A non-finite predicted
    MSE raises NumericError (``scheduler.decide``), and so does a new
    anchor with a non-finite entry or a negative variance on its diagonal,
    naming the cycle that produced it.
    """
    try:
        kalman._cycle_index("cycle count", cycles)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    scheduler._policy_rule(policy)
    if len(channel.obs_airtime) != model.n_observers:
        raise ConfigError(
            f"channel config has {len(channel.obs_airtime)} observer airtime "
            f"distributions, model has {model.n_observers} observers"
        )
    if channel.trace is not None and len(channel.trace) < cycles:
        raise ConfigError(
            f"airtime trace has {len(channel.trace)} rows, run needs {cycles}"
        )
    try:
        P0 = check_covariance("initial_cov", initial_cov, model.n_states)
    except (DimensionError, DomainError) as exc:
        raise ConfigError(str(exc)) from None
    return _cycles(model, channel, policy, P0, cycles)


def _cycles(model, channel, policy, P0, cycles):
    """The loop of ``decision_cycles``, on a checked run."""
    prior_cov = P0
    for k in range(1, cycles + 1):
        obs_air, act_air = sample_airtimes(channel, k)
        ctx = scheduler.CycleContext(
            candidates=kalman.cycle_candidates(model, k, obs_air),
            action_airtimes=tuple(act_air),
            T=model.T,
            cycle_index=k,
            t0=(k - 1) * model.T,
            prior_cov=prior_cov,
        )
        ev = scheduler.decide(policy, ctx, model)
        prior_cov = ev.boundary_cov
        # A broken anchor would otherwise surface cycles later.
        if not scheduler._finite_variances(prior_cov):
            raise NumericError(
                f"cycle {k}: the next cycle's anchor covariance has a non-finite "
                "entry or a negative variance"
            )
        yield ctx, ev


def run_simulation(
    model: SystemModel,
    cfg: ChannelConfig,
    policy: str,
    K: int,
    initial_state: np.ndarray | None = None,
    initial_cov: np.ndarray | None = None,
    inputs=None,
) -> list[CycleLog]:
    """Run K decision cycles under the given policy and return the logs.

    The estimate starts at (xh = 0, P = initial_cov, default I) and, like
    ``decision_cycles``' anchor, is carried to every cycle boundary; its
    covariance is the anchor itself, so only its mean xh is carried here.
    ``inputs`` maps j to the action vector held over cycle j+1,
    [jT, (j+1)T], for j = 0 .. K-1; each vector has exactly
    ``model.n_agents`` entries once flattened.  ``None`` means zero input
    throughout.  Policy ``all`` harvests every candidate ignoring the
    budget; ``none`` harvests nothing.  Each cycle walks its candidate
    timestamps and then kT once, in time order: the true state steps to
    every timestamp regardless of selection, so that all policies on one
    seed see the same trajectory, and at each timestamp of ``ev.seq`` an
    observation value y is drawn from the state just reached and fused
    into the estimate: xh is propagated to the timestamp, unless it is
    held there already, and becomes ``xh + Pc / e * (y - c^T xh)`` with
    the gain ``(Pc, e)`` of ``ev.gains``, ``kalman.update_estimate``'s
    expression and bits on the chain the policy scored, whose last
    posterior is ``ev.running_cov``.  After the walk the estimate is
    predicted to kT.  A
    timestamp equal to the last one reached is not stepped to:
    ``step_true_state`` over a zero length draws no noise and returns the
    state unchanged, so skipping it changes no bits.  A
    non-finite predicted MSE or squared error raises NumericError; a bad
    run (``decision_cycles`` lists the checks, and ``inputs`` missing a
    cycle, or with a vector of the wrong length or with a non-finite
    entry, or an ``initial_state`` without ``model.n_states`` entries once
    flattened, all finite) raises ConfigError before the initial state is
    drawn.
    """
    S = model.n_states
    P0 = np.eye(S) if initial_cov is None else np.asarray(initial_cov, dtype=float)
    # Check the run before the initial state is drawn from N(0, P0).
    cycles = decision_cycles(model, cfg, policy, P0, K)
    if inputs is not None:
        missing = [j for j in range(K) if j not in inputs]
        if missing:
            shown = ", ".join(map(str, missing[:10])) + (", ..." if len(missing) > 10 else "")
            raise ConfigError(f"inputs lacks {len(missing)} of cycles 0..{K - 1}: {shown}")
        for j in range(K):
            if np.size(inputs[j]) != model.n_agents:
                raise ConfigError(
                    f"inputs[{j}] has {np.size(inputs[j])} entries, "
                    f"model has {model.n_agents} agents"
                )
            if not np.isfinite(inputs[j]).all():
                raise ConfigError(f"inputs[{j}] contains non-finite entries")
    rng_proc = np.random.default_rng([cfg.seed, _PROCESS_TAG])
    rng_obs = np.random.default_rng([cfg.seed, _OBS_NOISE_TAG])
    if initial_state is not None:
        x_true = np.asarray(initial_state, dtype=float).reshape(-1)
        if x_true.size != S or not np.isfinite(x_true).all():
            raise ConfigError(f"initial_state must be {S} finite numbers, got {x_true.tolist()}")
    elif P0.any():
        # Draw the true state from the executive's prior N(0, P0), so that
        # predicted and realized errors are consistent from cycle 1 on.
        x_true = dynamics._noise_factor(P0) @ rng_proc.standard_normal(S)
    else:
        x_true = np.zeros(S)
    xh = np.zeros(S)  # the estimate's mean at the cycle start
    t_true = 0.0

    logs: list[CycleLog] = []
    for ctx, ev in cycles:
        u = None if inputs is None else inputs[ctx.cycle_index - 1]
        # One walk in time order: the true state steps to each timestamp,
        # then to kT, and each chosen observation is drawn from the state
        # just reached and fused into the estimate xh held at t_est, with
        # the gain the policy's chain recorded for it.
        t_est = ctx.t0
        for i, t in enumerate(ctx.timestamps + (ctx.cycle_end,)):
            if t != t_true:  # a zero-length step draws nothing and moves nothing
                x_true = step_true_state(model, x_true, u, t_true, t, rng_proc)
                t_true = t
            if i in ev.seq:  # ascending, so fused in time order
                n = ctx.observers[i]
                noise = math.sqrt(model.obs_var(n)) * rng_obs.standard_normal()
                c = model.obs_row(n)
                y = float(c.dot(x_true)) + noise
                if t != t_est:
                    xh = kalman.propagate_estimate(model, xh, u, t_est, t)
                    t_est = t
                # update_estimate's expression and bits, with the chain's gain
                Pc, e = ev.gains[ev.seq.index(i)]
                xh = xh + Pc / e * (y - float(c.dot(xh)))
        xh = kalman.propagate_estimate(model, xh, u, t_est, ctx.cycle_end)
        sq_err = float(((x_true - xh) ** 2).sum())
        if not math.isfinite(sq_err):
            raise NumericError(f"cycle {ctx.cycle_index}: squared error is {sq_err}")

        logs.append(
            CycleLog(
                cycle=ctx.cycle_index,
                policy=policy,
                candidates=ctx.candidates,
                seq=ev.seq,
                end_of_harvest=ev.end_of_harvest,
                budget=ctx.budget,
                mse_pred=ev.mse,
                sq_err=sq_err,
                true_state=x_true.copy(),
                est_state=xh,
                nodes_visited=ev.nodes_visited,
                t0=ctx.t0,
                prior_cov=ctx.prior_cov,
            )
        )

    return logs


def selection_stats(logs: list[CycleLog]) -> dict[int, float]:
    """Per-observer fraction of cycles in which it was harvested."""
    if not logs:
        raise DomainError("selection_stats requires at least one cycle log")
    observers: set[int] = set()
    counts: dict[int, int] = {}
    for log in logs:
        observers.update(c.observer for c in log.candidates)
        for i in log.seq:
            obs = log.candidates[i].observer
            counts[obs] = counts.get(obs, 0) + 1
    return {n: counts.get(n, 0) / len(logs) for n in sorted(observers)}
