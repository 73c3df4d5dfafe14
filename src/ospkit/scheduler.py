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

from .errors import ConfigError, DomainError, NumericError, OrderingError
from .kalman import Candidate, _cycle_index, _sequence_boundary, g_step, predict_cov
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
    start.  A ``cycle_index`` that is not an integer >= 1 (a bool
    included), an observer id that is not an integer >= 0 (a bool
    included; numpy integers pass), a non-finite ``t0``, timestamp or
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
        _cycle_index("cycle index", self.cycle_index)
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
            n = c.observer  # a plain int skips the numbers.Integral test
            if (type(n) is not int and (isinstance(n, bool) or not isinstance(n, numbers.Integral))
                    or n < 0):
                raise DomainError(f"candidate observer ids must be integers >= 0, got {n!r}")
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
    strict deadline but is reported anyway.  ``boundary_cov`` is
    ``running_cov`` predicted to the cycle end, whose trace is ``mse``;
    every policy sets it, and ``sim.decision_cycles`` takes it as the next
    cycle's anchor.
    """

    seq: tuple[int, ...]
    end_of_harvest: float
    mse: float
    running_cov: np.ndarray
    nodes_visited: int = 0
    forced_empty: bool = False
    boundary_cov: np.ndarray | None = field(default=None, repr=False)


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
    up by its module-level name at each call, which reads the step's
    (Phi, Qd) from the model.  ``root`` opens the instance: it chains the
    anchor's covariance through the root followers and fills the boundary
    pair (M_j, c_j) over kT - t_j of the anchor and of each follower, the
    only indices a schedulable sequence holds.  ``rank`` then reads
    ``<M_j, P> + c_j``, the boundary MSE of P held at j up to rounding.

    Where the model does not hold a length, the kernel builds its operator
    from held ones, since lengths add, instead of paying an exponential:

    - a far step i -> j, j > i + 1 (the anchor counts as index -1), from
      the held steps i -> j-1 and j-1 -> j, by ``model.compose``, so the
      model holds it from then on;
    - a follower's pair from the next follower's pair and the step between
      them, which the root chain holds: ``M_j = Phi^T M_{j+1} Phi`` and
      ``c_j = <M_{j+1}, Qd> + c_{j+1}``; equal timestamps share one pair.

    Every other pair, the last follower's and the anchor's among them, is
    ``model.boundary_operator``'s, so no instance pays more exponentials
    than without the kernel.  Every step reads the model's operator for its
    length, so a chain has the bits of ``kalman.sequence_mse``'s running
    covariance on the same model while the model holds the chain's
    lengths.  Ranks agree with the trace of ``predict_cov`` to rounding.
    """

    def __init__(self, ctx: CycleContext, model: SystemModel):
        self.ctx, self.model, self.kT, self.anchor = ctx, model, ctx.cycle_end, ctx.L
        self.times = ctx.timestamps + (ctx.t0,)
        self.observers = ctx.observers
        self._pairs = [None] * (ctx.L + 1)

    def root(self, cov: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
        """(root followers, ``cov`` chained through them) for ``cov`` held at
        the anchor; the followers are the i with ``_finish(0.0, ctx, i) < B``.
        Then fills the pairs ``rank`` reads, backward over the followers."""
        ctx, model, ts, kT = self.ctx, self.model, self.times, self.kT
        B, off, air = ctx.budget, ctx.offsets, ctx.airtimes
        fol = [i for i in range(ctx.L) if max(off[i], 0.0) + air[i] < B]
        covs = self.chain(cov, self.anchor, fol)
        pair, t_next = None, None
        for k in reversed(fol):
            t = ts[k]
            if t != t_next:  # equal timestamps share one pair
                step = None
                if t_next is not None and model.held(kT - t) is None:
                    step = model.held(t_next - t)
                if step is None:
                    pair = model.boundary_operator(kT - t)
                else:
                    (Phi, Qd), (M, c) = step, pair
                    pair = (Phi.T @ M @ Phi, float(np.vdot(M, Qd)) + c)
            self._pairs[k], t_next = pair, t
        self._pairs[self.anchor] = model.boundary_operator(kT - ts[self.anchor])
        return fol, covs

    def chain(self, cov: np.ndarray, i: int, seq) -> list[np.ndarray]:
        """Running covariances of ``cov``, held at index i, through ``seq``."""
        model, ts, obs = self.model, self.times, self.observers
        t, out = ts[i], []
        for j in seq:
            dt = ts[j] - t
            if dt and model.held(dt) is None:  # a zero length reads nothing
                self._new_step(i, j, dt)
            cov = g_step(model, cov, t, ts[j], obs[j])
            t, i = ts[j], j
            out.append(cov)
        return out

    def rank(self, cov: np.ndarray, j: int) -> float:
        """``<M_j, cov> + c_j`` of ``cov`` held at j, the anchor or a root
        follower of the opened instance."""
        pair = self._pairs[j]
        return float(np.vdot(pair[0], cov)) + pair[1]

    def _new_step(self, i: int, j: int, dt: float) -> None:
        """Ask the model to compose the step i -> j, of a length dt > 0 it
        does not hold, when the step is far; where it cannot, ``g_step``'s
        lookup pays the exponential."""
        h = j - 1  # the candidate before j
        if h > (-1 if i == self.anchor else i):
            ts = self.times
            self.model.compose(dt, ts[h] - ts[i], ts[j] - ts[h])


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
    """Score ``seq`` from scratch: its end of harvest, and its predicted MSE,
    running covariance and boundary covariance from the cycle's anchor,
    as ``kalman.sequence_mse`` scores it."""
    boundary, cov = _sequence_boundary(
        model, ctx.prior_cov, ctx.t0, [ctx.candidates[i] for i in seq], ctx.cycle_end
    )
    return ScheduleEvaluation(
        seq, end_of_harvest(seq, ctx), float(np.trace(boundary)), cov,
        boundary_cov=boundary, **diagnostics,
    )


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
    feasibility.  The bound needs a positive semi-definite ``prior_cov``.
    ``ospkit schedule`` checks that in full, and so does
    ``decision_cycles`` for the initial covariance; each later anchor is
    a policy's boundary prediction, which it checks only for finite
    entries and non-negative variances.

    Every covariance step and every rank, of a sequence or of a bound, goes
    through the instance's ``RankKernel``, and a node reads the context's
    per-candidate tables.  ``RankKernel.root`` opens the instance before
    the first rank: it gives the root's followers and their chain, and
    fills every boundary pair.  The kernel composes the steps and boundary
    pairs whose lengths the model does not hold from those it does, so a
    cold loose instance pays L + 2 exponentials: anchor -> 0, the L - 1
    adjacent steps, the last candidate's pair and the anchor's.  The
    model keeps each composed step, so every step of the search reads the
    operator ``kalman.sequence_mse`` reads.  Only the winner is scored the
    reported way, from its own chain, as the trace of ``predict_cov`` to
    kT, so its ``mse`` and ``running_cov`` equal ``kalman.sequence_mse``
    of its ``seq`` on the same model bit for bit, while the model holds
    the chain's lengths (a full cache may evict a composed length, which
    then comes back as its exponential).  A composed operator moves a
    rank only by rounding, so ``seq`` and ``nodes_visited`` can move only
    where a rank sits at a tie edge.
    """
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    B, off, air = ctx.budget, ctx.offsets, ctx.airtimes
    kernel = RankKernel(ctx, model)
    chain, rank, anchor = kernel.chain, kernel.rank, kernel.anchor
    fol, covs = kernel.root(ctx.prior_cov)
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

    if fol:
        expand((), 0.0, ctx.prior_cov, anchor, fol, covs, bound_of(fol, covs))
    _, seq, cov, d = _winner(window)
    t = kernel.times[seq[-1] if seq else anchor]
    boundary = predict_cov(model, cov, t, ctx.cycle_end)
    return ScheduleEvaluation(
        seq, d, float(np.trace(boundary)), cov, nodes_visited=nodes, boundary_cov=boundary
    )


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
    ``_winner``, scored like every policy's answer.  Guarded to L <= 20.
    ``RankKernel.root`` opens the kernel, as in ``bnb_search``, so both
    rank with pairs built the same way."""
    if ctx.L > _ORACLE_MAX_L:
        raise DomainError(f"exhaustive oracle limited to L <= {_ORACLE_MAX_L}")
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    kernel = RankKernel(ctx, model)
    kernel.root(ctx.prior_cov)
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


def _policy_rule(policy: str):
    """``POLICIES[policy]``; an unknown name raises ConfigError."""
    try:
        return POLICIES[policy]
    except KeyError:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {tuple(POLICIES)}") from None


def decide(policy: str, ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Run the named policy on one instance; an unknown policy raises
    ConfigError, and a non-finite predicted MSE NumericError."""
    ev = _policy_rule(policy)(ctx, model)
    if not math.isfinite(ev.mse):
        raise NumericError(f"cycle {ctx.cycle_index}: predicted MSE is {ev.mse}")
    return ev
