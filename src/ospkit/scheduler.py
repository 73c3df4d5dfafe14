"""The Observer Selection Problem: order a cycle's candidate observations,
test deadline feasibility, and search for the sequence minimizing the
predicted boundary MSE.

A sequence of candidate indices is schedulable iff its end-of-harvest time
(FCFS, non-preemptive, cycle-relative) is strictly below the harvesting
budget B = T - sum(action airtimes).  The search space is the family of
strictly ascending index tuples (a subset forest); any extension of a
non-schedulable sequence is non-schedulable, which is the only pruning
rule used.  Adding an observation never raises the predicted MSE, but the
search does not bound on the objective yet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NumericError, OrderingError
from .kalman import g_step, predict_cov, sequence_mse
from .model import SystemModel

__all__ = [
    "Candidate",
    "CycleContext",
    "ScheduleEvaluation",
    "order_observations",
    "harvesting_budget",
    "end_of_harvest",
    "is_schedulable",
    "bnb_search",
    "greedy_search",
    "harvest_all",
    "harvest_none",
    "exhaustive_oracle",
    "POLICIES",
    "decide",
]

# Two MSE values within this relative tolerance are treated as tied and the
# tie broken by (fewer observations, lexicographically smaller indices).
MSE_TIE_RTOL = 1e-12

_ORACLE_MAX_L = 20


@dataclass(frozen=True)
class Candidate:
    """One harvestable observation: absolute timestamp, airtime, observer id."""

    timestamp: float
    airtime: float
    observer: int


def order_observations(raw) -> tuple[Candidate, ...]:
    """Sort candidates ascending by timestamp, ties by observer id."""
    cands = tuple(
        c if isinstance(c, Candidate) else Candidate(*c) for c in raw
    )
    return tuple(sorted(cands, key=lambda c: (c.timestamp, c.observer)))


def harvesting_budget(T: float, action_airtimes) -> float:
    """B = T - sum of action airtimes; may be <= 0."""
    return T - sum(action_airtimes)


@dataclass(frozen=True)
class CycleContext:
    """One decision cycle's solvable instance.

    ``candidates`` are ordered ascending by (timestamp, observer);
    timestamps are absolute, while feasibility arithmetic uses offsets
    relative to the cycle start (k-1)T.  ``t0``/``prior_cov`` anchor the
    covariance chain at the latest earlier estimate.
    """

    candidates: tuple[Candidate, ...]
    action_airtimes: tuple[float, ...]
    T: float
    cycle_index: int
    t0: float
    prior_cov: np.ndarray
    budget: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "candidates", order_observations(self.candidates))
        object.__setattr__(
            self, "action_airtimes", tuple(float(a) for a in self.action_airtimes)
        )
        object.__setattr__(self, "prior_cov", np.asarray(self.prior_cov, dtype=float))
        object.__setattr__(
            self, "budget", harvesting_budget(self.T, self.action_airtimes)
        )
        if self.cycle_index < 1:
            raise DomainError(f"cycle index must be >= 1, got {self.cycle_index}")
        if any(not c.airtime > 0.0 for c in self.candidates):
            raise DomainError("all observation airtimes must be > 0")
        if any(a < 0.0 for a in self.action_airtimes):
            raise DomainError("action airtimes must be >= 0")
        if self.candidates and self.t0 > self.candidates[0].timestamp:
            raise OrderingError(
                f"prior anchor t0={self.t0} is later than the first candidate"
            )

    @property
    def L(self) -> int:
        return len(self.candidates)

    @property
    def cycle_start(self) -> float:
        return (self.cycle_index - 1) * self.T

    @property
    def cycle_end(self) -> float:
        return self.cycle_index * self.T

    def rel_offset(self, i: int) -> float:
        """Candidate i's timestamp relative to the cycle start."""
        return self.candidates[i].timestamp - self.cycle_start


@dataclass(frozen=True)
class ScheduleEvaluation:
    """A sequence plus its end-of-harvest time, predicted MSE, running
    posterior covariance, and search diagnostics.

    ``seq`` holds 0-based candidate indices.  ``forced_empty`` marks the
    degenerate budget <= 0 case where even the empty sequence misses the
    strict deadline but is reported anyway.
    """

    seq: tuple[int, ...]
    end_of_harvest: float
    mse: float
    running_cov: np.ndarray
    nodes_visited: int = 0
    forced_empty: bool = False


def _finish(d: float, ctx: CycleContext, j: int) -> float:
    """FCFS step: when candidate j finishes transmitting on a channel busy
    until d, cycle-relative: max(o_j, d) + O_j."""
    return max(ctx.rel_offset(j), d) + ctx.candidates[j].airtime


def end_of_harvest(seq, ctx: CycleContext) -> float:
    """Cycle-relative time when the last observation of ``seq`` finishes
    transmitting: d <- max(o_j, d) + O_j over the sequence, d = 0 for the
    empty sequence."""
    d = 0.0
    for i in seq:
        if not 0 <= i < ctx.L:
            raise DomainError(f"candidate index {i} out of range [0, {ctx.L})")
        d = _finish(d, ctx, i)
    return d


def is_schedulable(seq, ctx: CycleContext) -> bool:
    """True iff end_of_harvest(seq) < budget (strict)."""
    return end_of_harvest(seq, ctx) < ctx.budget


def _better(mse_a: float, seq_a, mse_b: float, seq_b) -> bool:
    """Comparator for (mse, seq) pairs with deterministic tie-breaking."""
    scale = max(abs(mse_a), abs(mse_b), 1e-300)
    if abs(mse_a - mse_b) > MSE_TIE_RTOL * scale:
        return mse_a < mse_b
    if len(seq_a) != len(seq_b):
        return len(seq_a) < len(seq_b)
    return seq_a < seq_b


def _evaluate(
    ctx: CycleContext, model: SystemModel, seq: tuple[int, ...], **diagnostics
) -> ScheduleEvaluation:
    """Score ``seq`` from scratch: its end of harvest, and its predicted MSE
    and running covariance from the cycle's anchor."""
    mse, cov = sequence_mse(
        model, ctx.prior_cov, ctx.t0, [ctx.candidates[i] for i in seq], ctx.cycle_end
    )
    return ScheduleEvaluation(seq, end_of_harvest(seq, ctx), mse, cov, **diagnostics)


def harvest_none(ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Policy ``none``: the empty sequence, i.e. pure prediction."""
    return _evaluate(ctx, model, (), forced_empty=not 0.0 < ctx.budget)


def bnb_search(ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Depth-first feasibility-pruned search over the subset forest.

    Returns the MSE-minimizing schedulable sequence (the empty sequence
    included whenever budget > 0).  Appending index j to a sequence is
    checked for schedulability first; an infeasible append skips the whole
    subtree rooted there but later siblings are still tried, since a later
    observation with a shorter airtime may fit.  ``nodes_visited`` counts
    feasibility-checked non-empty sequences.
    """
    best = harvest_none(ctx, model)
    if ctx.budget <= 0.0:
        return best
    nodes = 0
    kT = ctx.cycle_end
    B = ctx.budget
    best_key = (best.mse, best.seq, best.running_cov, best.end_of_harvest)

    def extend(seq, d, cov, t_prev, first_next):
        nonlocal nodes, best_key
        for j in range(first_next, ctx.L):
            cj = ctx.candidates[j]
            nodes += 1
            dj = _finish(d, ctx, j)
            if not dj < B:
                continue  # prune subtree (s, j); siblings may still fit
            cov_j = g_step(model, cov, t_prev, cj.timestamp, cj.observer)
            seq_j = seq + (j,)
            mse_j = float(np.trace(predict_cov(model, cov_j, cj.timestamp, kT)))
            if _better(mse_j, seq_j, best_key[0], best_key[1]):
                best_key = (mse_j, seq_j, cov_j, dj)
            extend(seq_j, dj, cov_j, cj.timestamp, j + 1)

    extend((), 0.0, ctx.prior_cov, ctx.t0, 0)
    mse, seq, cov, d = best_key
    return ScheduleEvaluation(seq, d, mse, cov, nodes_visited=nodes)


def greedy_search(ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """First-come-first-serve baseline: scan candidates in time order and
    keep each one whose append stays schedulable; skipped indices are never
    revisited."""
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    seq: tuple[int, ...] = ()
    d = 0.0
    for j in range(ctx.L):
        dj = _finish(d, ctx, j)
        if dj < ctx.budget:
            seq += (j,)
            d = dj
    return _evaluate(ctx, model, seq, nodes_visited=ctx.L)


def harvest_all(ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Policy ``all``: every candidate in time order, ignoring the budget."""
    return _evaluate(ctx, model, tuple(range(ctx.L)))


def exhaustive_oracle(ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Ground truth: enumerate all 2^L subsets, evaluate each from scratch
    (no pruning, no running-covariance reuse), and return the argmin under
    the same tie-break.  Guarded to L <= 20."""
    if ctx.L > _ORACLE_MAX_L:
        raise DomainError(f"exhaustive oracle limited to L <= {_ORACLE_MAX_L}")
    best = harvest_none(ctx, model)
    if ctx.budget <= 0.0:
        return best
    for size in range(1, ctx.L + 1):
        for seq in itertools.combinations(range(ctx.L), size):
            if not is_schedulable(seq, ctx):
                continue
            ev = _evaluate(ctx, model, seq)
            if _better(ev.mse, seq, best.mse, best.seq):
                best = ev
    return replace(best, nodes_visited=2**ctx.L)


# Policy name -> decision rule (ctx, model) -> ScheduleEvaluation.  Each entry
# looks its function up by module-level name at call time, so tracing that
# rebinds those names (perfbench/spans.py) sees calls made through the table.
POLICIES = {
    "bnb": lambda ctx, model: bnb_search(ctx, model),
    "greedy": lambda ctx, model: greedy_search(ctx, model),
    "all": lambda ctx, model: harvest_all(ctx, model),
    "none": lambda ctx, model: harvest_none(ctx, model),
}


def decide(policy: str, ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Run the named policy on one instance; a non-finite predicted MSE
    raises NumericError."""
    ev = POLICIES[policy](ctx, model)
    if not math.isfinite(ev.mse):
        raise NumericError(f"cycle {ctx.cycle_index}: predicted MSE is {ev.mse}")
    return ev
