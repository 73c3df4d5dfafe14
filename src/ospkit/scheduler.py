"""The Observer Selection Problem: order a cycle's candidate observations,
test deadline feasibility, and search for the sequence minimizing the
predicted boundary MSE.

A sequence of candidate indices is schedulable iff its end-of-harvest time
(FCFS, non-preemptive, cycle-relative) is strictly below the harvesting
budget B = T - sum(action airtimes).  The search space is the family of
strictly ascending index tuples (a subset forest).  The branch-and-bound
search prunes on two rules.  Feasibility: any extension of a
non-schedulable sequence is non-schedulable.  The objective: adding an
observation never raises the predicted MSE, so the MSE of a sequence
extended by every candidate that could still follow it bounds all its
extensions from below, and a subtree whose bound exceeds every rank
that could still win is skipped (Vitus, Zhang, Abate, Hu & Tomlin,
"On efficient sensor scheduling for linear dynamical systems",
Automatica 2012).  The same bound cuts across siblings: when a child
can reach every later follower of its parent, each later sibling's
subtree uses a subset of the child's observations, so a bound that cuts
the child cuts those siblings too.

The winner depends on the instance alone, not on the order in which
sequences are scored: with m the least rank over all schedulable
sequences, it is the least ``(len(seq), seq)`` among the sequences ranked
within ``MSE_TIE_RTOL`` of m (``_winner``).  ``bnb_search`` and
``exhaustive_oracle`` chain and rank with one ``RankKernel`` and pick with
the same ``_winner``, so they agree by construction.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

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

# A rank within this relative tolerance of the least rank ties it; among
# the tied sequences the fewest observations, then the lexicographically
# smallest indices, win (``_winner``).
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
    relative to the cycle start (k-1)T.  The candidates are also kept as
    tables computed once, one entry per candidate: ``timestamps``,
    ``offsets`` (the cycle-relative timestamps), ``airtimes`` and
    ``observers``.  ``t0``/``prior_cov`` anchor the covariance chain at the
    latest earlier estimate; a ``t0`` of None anchors it at the cycle
    start.  A ``cycle_index`` that is not an
    integer >= 1 (a bool included), a non-finite ``t0``, timestamp or
    airtime, an observation airtime <= 0 or an action airtime < 0 raises
    DomainError; a candidate before ``t0`` or after the cycle end raises
    OrderingError.
    """

    candidates: tuple[Candidate, ...]
    action_airtimes: tuple[float, ...]
    T: float
    cycle_index: int
    t0: float | None
    prior_cov: np.ndarray
    budget: float = field(init=False)
    timestamps: tuple[float, ...] = field(init=False, repr=False)
    offsets: tuple[float, ...] = field(init=False, repr=False)
    airtimes: tuple[float, ...] = field(init=False, repr=False)
    observers: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "candidates", order_observations(self.candidates))
        object.__setattr__(
            self, "action_airtimes", tuple(float(a) for a in self.action_airtimes)
        )
        object.__setattr__(self, "prior_cov", np.asarray(self.prior_cov, dtype=float))
        object.__setattr__(
            self, "budget", harvesting_budget(self.T, self.action_airtimes)
        )
        k = self.cycle_index
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise DomainError(f"cycle index must be an integer >= 1, got {k!r}")
        start = self.cycle_start
        cands = self.candidates
        object.__setattr__(self, "timestamps", tuple(c.timestamp for c in cands))
        object.__setattr__(self, "offsets", tuple(t - start for t in self.timestamps))
        object.__setattr__(self, "airtimes", tuple(c.airtime for c in cands))
        object.__setattr__(self, "observers", tuple(c.observer for c in cands))
        if self.t0 is None:
            object.__setattr__(self, "t0", start)
        if not math.isfinite(self.t0):
            raise DomainError(f"prior anchor t0 must be finite, got {self.t0}")
        for c in self.candidates:
            if not math.isfinite(c.timestamp):
                raise DomainError(f"candidate timestamps must be finite, got {c.timestamp}")
            if not 0.0 < c.airtime < math.inf:
                raise DomainError(
                    f"observation airtimes must be finite and > 0, got {c.airtime}"
                )
        if not all(0.0 <= a < math.inf for a in self.action_airtimes):
            raise DomainError(
                f"action airtimes must be finite and >= 0, got {self.action_airtimes}"
            )
        if self.candidates and self.t0 > self.candidates[0].timestamp:
            raise OrderingError(
                f"prior anchor t0={self.t0} is later than the first candidate"
            )
        if self.candidates and self.candidates[-1].timestamp > self.cycle_end:
            raise OrderingError(
                f"candidate at t={self.candidates[-1].timestamp} is after the "
                f"cycle end {self.cycle_end}"
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
    return max(ctx.offsets[j], d) + ctx.airtimes[j]


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


class RankKernel:
    """The one place where ``bnb_search`` and ``exhaustive_oracle`` step or
    rank a covariance, built once per instance from ``(ctx, model)``.

    A covariance is held at candidate j's timestamp or, at the spare index
    ``anchor`` (= L), at ``t0``.  ``chain`` steps it with ``g_step``, looked
    up by its module-level name at each call.  ``rank`` is ``<M_j, P> + c_j``
    with ``(M_j, c_j) = model.boundary_operator(kT - t_j)``, the boundary
    MSE of P up to rounding; the pairs fill a table on first use, so the
    model sees the lengths, and misses, as a lookup per rank would.
    """

    def __init__(self, ctx: CycleContext, model: SystemModel):
        self.model, self.kT, self.anchor = model, ctx.cycle_end, ctx.L
        self.times = ctx.timestamps + (ctx.t0,)
        self.observers = ctx.observers
        self._pairs = [None] * (ctx.L + 1)

    def chain(self, cov: np.ndarray, i: int, seq) -> list[np.ndarray]:
        """Running covariances of ``cov``, held at index i, through ``seq``."""
        model, ts, obs = self.model, self.times, self.observers
        t, out = ts[i], []
        for j in seq:
            cov = g_step(model, cov, t, ts[j], obs[j])
            t = ts[j]
            out.append(cov)
        return out

    def rank(self, cov: np.ndarray, j: int) -> float:
        """``<M_j, cov> + c_j`` of ``cov`` held at index j."""
        pair = self._pairs[j]
        if pair is None:
            pair = self._pairs[j] = self.model.boundary_operator(self.kT - self.times[j])
        return float(np.vdot(pair[0], cov)) + pair[1]


def _tie_edge(m: float) -> float:
    """The greatest rank that ties the least rank m."""
    return m + abs(m) * MSE_TIE_RTOL


def _winner(entries):
    """The winning entry of ``(rank, seq, ...)`` tuples: with m the least
    rank, the least ``(len(seq), seq)`` among the entries ranked at or
    below ``_tie_edge(m)``.  The result does not depend on the order of
    ``entries``."""
    if len(entries) == 1:  # the search's usual window, without two passes
        return entries[0]
    edge = _tie_edge(min(e[0] for e in entries))
    return min((e for e in entries if e[0] <= edge), key=lambda e: (len(e[1]), e[1]))


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
    """Depth-first branch-and-bound over the subset forest.

    Returns the ``_winner`` over the schedulable sequences, the empty
    sequence included whenever budget > 0; it is the sequence
    ``exhaustive_oracle`` returns.

    The children of a node ``seq`` with end of harvest d are its followers,
    the later candidates i with ``_finish(d, ctx, i) < B``; d only grows
    along an extension, so a child's followers are among its parent's.
    The node's bound is the boundary MSE of its covariance chained through
    all its followers.  An update never raises a covariance in the Loewner
    order, so the bound is at most the MSE of every descendant.  The search
    keeps m, the least rank scored so far, and the window of scored
    sequences ranked at or below ``_tie_edge(m)``, from which it drops
    sequences when m falls.  It skips the rest of a node's subtree as soon
    as ``bound * (1 - 2 * MSE_TIE_RTOL)`` exceeds ``_tie_edge(m)``: m is at
    least the least rank of all, so no descendant can then tie the least
    rank, and the slack covers the rounding between a bound and a rank.
    The first child's covariance heads its parent's chain; when none of the
    parent's later followers drops out of the child's, the rest of the
    chain is the child's chain and its bound is the same, so both are
    reused.

    A cut child also cuts its later siblings when its followers are all of
    its parent's later followers (``kids == rest``): every later sibling's
    subtree then holds ``seq`` plus a subset of those followers, which is a
    subset of the child's bound chain, so its rank is at least the child's
    bound.  The search then leaves the parent's loop without bounding the
    later siblings.  Without the guard a later sibling could reach a
    follower that the child cannot, and the cut would be unsound.
    ``nodes_visited`` counts the non-empty sequences checked for
    feasibility.  The bound needs a positive semi-definite ``prior_cov``,
    which ``decision_cycles`` and ``ospkit schedule`` check.

    Every covariance step and every rank, of a sequence or of a bound, goes
    through the instance's ``RankKernel``, and a node reads the context's
    per-candidate tables.  Only the winner is scored the reported way, as
    the trace of ``predict_cov`` to kT, so its ``mse`` and ``running_cov``
    equal ``sequence_mse`` of its ``seq`` bit for bit.
    """
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    B, off, air = ctx.budget, ctx.offsets, ctx.airtimes
    kernel = RankKernel(ctx, model)
    chain, rank, anchor = kernel.chain, kernel.rank, kernel.anchor
    cut = 1.0 - 2.0 * MSE_TIE_RTOL
    nodes = ctx.L  # the root checks every candidate
    m = rank(ctx.prior_cov, anchor)
    edge = _tie_edge(m)
    window = [(m, (), ctx.prior_cov, 0.0)]

    def bound_of(fol, covs):
        """Rank of the end of ``covs``; -inf (never cut) for a single
        follower, whose bound is the one child's own rank: visiting that
        child costs no more than bounding it."""
        if len(fol) > 1:
            return rank(covs[-1], fol[-1])
        return -math.inf

    def expand(seq, d, cov, i, fol, covs, bound):
        """Visit the children seq + (j,), j in fol, and their subtrees.
        ``cov`` is held at index i, ``covs`` is ``cov`` chained through
        ``fol``, and ``bound`` is ``bound_of(fol, covs)``."""
        nonlocal m, edge, window, nodes
        for n, j in enumerate(fol):
            if bound * cut > edge:
                return
            d_j = max(off[j], d) + air[j]  # _finish(d, ctx, j)
            rest = fol[n + 1 :]
            nodes += len(rest)
            # A root follower k has o_k + O_k < B, and rounding is monotone,
            # so _finish(d_j, ctx, k) < B iff d_j + O_k < B.
            kids = [k for k in rest if d_j + air[k] < B]
            cov_j = covs[0] if n == 0 else chain(cov, i, (j,))[0]
            seq_j = seq + (j,)
            rank_j = rank(cov_j, j)
            if rank_j <= edge:
                if rank_j < m:
                    m, edge = rank_j, _tie_edge(rank_j)
                    window = [e for e in window if e[0] <= edge]
                window.append((rank_j, seq_j, cov_j, d_j))
            if not kids:
                continue
            if n == 0 and kids == rest:  # the child's chain is the rest of ours
                covs_j, bound_j = covs[1:], bound
            else:
                covs_j = chain(cov_j, j, kids)
                bound_j = bound_of(kids, covs_j)
            if kids == rest and bound_j * cut > edge:
                return  # the child's subtree and every later sibling's
            expand(seq_j, d_j, cov_j, j, kids, covs_j, bound_j)

    fol = [i for i in range(ctx.L) if max(off[i], 0.0) + air[i] < B]
    if fol:
        covs = chain(ctx.prior_cov, anchor, fol)
        expand((), 0.0, ctx.prior_cov, anchor, fol, covs, bound_of(fol, covs))
    _, seq, cov, d = _winner(window)
    t = kernel.times[seq[-1] if seq else anchor]
    mse = float(np.trace(predict_cov(model, cov, t, ctx.cycle_end)))
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
    """Ground truth: enumerate all 2^L subsets, chain each schedulable one
    from the anchor with the instance's ``RankKernel`` (no pruning, no
    running-covariance reuse), rank the end of its chain, and return the
    ``_winner``, scored like every policy's answer.  Guarded to L <= 20."""
    if ctx.L > _ORACLE_MAX_L:
        raise DomainError(f"exhaustive oracle limited to L <= {_ORACLE_MAX_L}")
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    kernel = RankKernel(ctx, model)
    m = kernel.rank(ctx.prior_cov, kernel.anchor)  # (), schedulable as B > 0
    # Each sequence that tied the least rank seen when it was scored;
    # _winner drops those that do not tie the final least rank.
    entries = [(m, ())]
    for size in range(1, ctx.L + 1):
        for seq in itertools.combinations(range(ctx.L), size):
            if not is_schedulable(seq, ctx):
                continue
            covs = kernel.chain(ctx.prior_cov, kernel.anchor, seq)
            rank = kernel.rank(covs[-1], seq[-1])
            if rank <= _tie_edge(m):
                m = min(m, rank)
                entries.append((rank, seq))
    return _evaluate(ctx, model, _winner(entries)[1], nodes_visited=2**ctx.L)


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
