"""The Observer Selection Problem: order a cycle's candidate observations,
test deadline feasibility, and search for the sequence minimizing the
predicted boundary MSE.

A sequence of candidate indices is schedulable iff its end-of-harvest time
(FCFS, non-preemptive, cycle-relative) is strictly below the harvesting
budget B = T - sum(action airtimes).  The search space is the family of
strictly ascending index tuples (a subset forest).  The branch-and-bound
search sweeps the forest in time order: it advances every live sequence
through the candidates together, over stacked covariances, and prunes
on two rules.  Feasibility: any extension of a non-schedulable sequence
is non-schedulable.  The objective: adding an observation never raises
the predicted MSE, so the MSE of a sequence extended by every candidate
that could still follow it bounds all its extensions from below, and a
sequence whose bound exceeds every rank that could still win is not
extended (Vitus, Zhang, Abate, Hu & Tomlin, "On efficient sensor
scheduling for linear dynamical systems", Automatica 2012).

The winner depends on the instance alone, not on the order in which
sequences are scored: with m the least rank over all schedulable
sequences, it is the least ``(len(seq), seq)`` among the sequences ranked
within ``MSE_TIE_RTOL`` of m (``_winner``).  ``bnb_search`` and
``exhaustive_oracle`` rank with one ``RankKernel``'s table of boundary
pairs and pick with the same ``_winner``, so they agree by construction.
Every policy's answer is scored in one place, ``_score``, with
``kalman.sequence_mse``'s arithmetic.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, NumericError, OrderingError
from .kalman import (
    Candidate, _cycle_index, _observer_id, _sequence_boundary, _stacked_predictor,
    _update, _update_rows, predict_cov,
)
# Not called here; perfbench/test_smoke.py checks that its tracer rebinds
# scheduler.g_step, so the name stays bound.
from .kalman import g_step  # noqa: F401
from .model import SystemModel, check_period

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

# bnb_search bounds its rows only while the frontier holds more than this
# many: below it, bounding a row costs more than sweeping it.  With caps of
# 16/32/64/128/256, alternated in one process on one BLAS thread (a
# 2-vCPU Xeon guest, two runs), the search-wide pool of seed 1 took
# 1.69-1.94/1.52-1.85/1.56-1.80/1.39-1.90/1.44-2.00 ms at p95, and 10
# instances between loose and tight at L = 12 (ROADMAP's "mid") took
# 0.82-1.17/0.93-1.06/0.63-0.86/0.60-0.62/0.64-0.99 ms each: the caps
# from 64 up are within the host's noise of one another.
_FRONTIER_CAP = 64
# Most rows bnb_search sweeps at once (4096 3 x 3 covariances are about
# 300 KB); a larger frontier is split and its halves swept in turn.
_ROW_LIMIT = 4096


def _as_candidates(raw) -> tuple[Candidate, ...]:
    return tuple(c if isinstance(c, Candidate) else Candidate(*c) for c in raw)


def _order_key(c: Candidate) -> tuple:
    return (c.timestamp, c.observer)


def order_observations(raw) -> tuple[Candidate, ...]:
    """Sort candidates ascending by timestamp, ties by observer id."""
    return tuple(sorted(_as_candidates(raw), key=_order_key))


def harvesting_budget(T: float, action_airtimes) -> float:
    """B = T - sum of action airtimes; may be <= 0."""
    return T - sum(action_airtimes)


def _finite_variances(P: np.ndarray) -> bool:
    """True iff the square matrix P has only finite entries and no negative
    variance: O(S^2) reads and no factorization, so short of
    ``model.check_covariance``'s positive semi-definite test, which the
    search's bound needs.  ``CycleContext`` and ``sim.decision_cycles``
    (for each new anchor) reject what fails it.  At a plant's few states
    these Python-level reads cost a third of two numpy reductions."""
    return all(map(math.isfinite, P.flat)) and min(P.diagonal().tolist(), default=0.0) >= 0.0


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
    start.  A ``T`` that ``SystemModel`` would reject (``check_period``),
    a ``cycle_index`` that is not an integer >= 1 (a bool included), an
    observer id that is not an integer >= 0 (a bool included; numpy
    integers pass), a non-finite ``t0``, timestamp or airtime, an
    observation airtime <= 0, an action airtime < 0, or a ``prior_cov``
    with a non-finite entry or a negative variance (``_finite_variances``)
    raises DomainError; a ``prior_cov`` that is not a square matrix raises
    DimensionError; a candidate before ``t0`` or after the cycle end
    raises OrderingError.  Whether ``prior_cov`` is positive semi-definite
    is left to ``model.check_covariance``, and whether it has the model's
    size to ``_check_instance``, as the context does not know the model.
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
        cands = _as_candidates(self.candidates)
        for c in cands:  # before the sort, which compares the ids
            _observer_id(c.observer)
            if not math.isfinite(c.timestamp):
                raise DomainError(f"candidate timestamps must be finite, got {c.timestamp}")
            if not 0.0 < c.airtime < math.inf:
                raise DomainError(
                    f"observation airtimes must be finite and > 0, got {c.airtime}"
                )
        object.__setattr__(self, "candidates", tuple(sorted(cands, key=_order_key)))
        object.__setattr__(
            self, "action_airtimes", tuple(float(a) for a in self.action_airtimes)
        )
        check_period(self.T)
        P = np.asarray(self.prior_cov, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionError(f"prior_cov must be a square matrix, got shape {P.shape}")
        if not _finite_variances(P):
            raise DomainError("prior_cov has a non-finite entry or a negative variance")
        object.__setattr__(self, "prior_cov", P)
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


def _check_instance(ctx: CycleContext, model: SystemModel) -> None:
    """DomainError unless every observer id of ``ctx`` names one of the
    model's observers, and DimensionError unless ``prior_cov`` is S x S
    for the model's S states; ``CycleContext`` checked that the ids are
    integers >= 0 and that ``prior_cov`` is square.  ``RankKernel`` and
    ``_evaluate``, through which every policy reads the model, call it."""
    if ctx.observers:
        _observer_id(max(ctx.observers), model.n_observers)
    S, n = model.n_states, len(ctx.prior_cov)
    if n != S:
        raise DimensionError(
            f"prior_cov must be {S}x{S} for the model's {S} states, got {n}x{n}"
        )


def _finish(d: float, ctx: CycleContext, j: int) -> float:
    """FCFS step: when candidate j finishes transmitting on a channel busy
    until d, cycle-relative: max(o_j, d) + O_j."""
    return max(ctx.offsets[j], d) + ctx.airtimes[j]


def end_of_harvest(seq, ctx: CycleContext) -> float:
    """Cycle-relative time when the last observation of ``seq`` finishes
    transmitting: d <- max(o_j, d) + O_j over the sequence, d = 0 for the
    empty sequence."""
    d, L = 0.0, ctx.L
    for i in seq:
        if not 0 <= i < L:
            raise DomainError(f"candidate index {i} out of range [0, {L})")
        d = _finish(d, ctx, i)
    return d


def is_schedulable(seq, ctx: CycleContext) -> bool:
    """True iff end_of_harvest(seq) < budget (strict)."""
    return end_of_harvest(seq, ctx) < ctx.budget


class RankKernel:
    """The one place where ``bnb_search`` and ``exhaustive_oracle`` rank a
    covariance, and the one step that opens an instance against a model:
    ``RankKernel(ctx, model)`` checks the instance (``_check_instance``)
    and fills every pair it ranks with.

    A covariance is held at candidate j's timestamp or, at the spare index
    ``anchor`` (= L), at ``t0``.  Only a root follower, an i with
    ``_finish(0.0, ctx, i) < B``, can be in a schedulable sequence; the
    followers are ``fol``, in time order.  The constructor holds the step
    from each follower's predecessor in ``stacked``, as its
    ``kalman._stacked_predictor`` form, or None for a zero length
    (``stacked[0]`` is None: ``bnb_search`` steps the prior to the first
    follower with ``predict_cov``).  It then fills the boundary pair
    (M_j, c_j) over kT - t_j of the anchor and of each follower, backward
    over the followers.  ``rank`` reads ``<M_j, P> + c_j``, the boundary
    MSE of P held at j up to rounding, and ``rank_rows`` the same of each
    row of a stack of flattened covariances.

    Only the anchor's pair and the pair at the last follower timestamp
    are ``model.boundary_operator``'s.  Every other follower's pair is
    composed, since lengths add, from the next follower's pair and the
    step between them, which the kernel holds:
    ``M_j = Phi^T M_{j+1} Phi`` and ``c_j = <M_{j+1}, Qd> + c_{j+1}``;
    equal timestamps share one pair.  So the pairs cost at most two
    exponentials, and they depend on the instance alone, not on what the
    model computed before.  Ranks agree with the trace of ``predict_cov``
    to rounding.
    """

    def __init__(self, ctx: CycleContext, model: SystemModel):
        _check_instance(ctx, model)
        self.ctx, self.model, self.anchor = ctx, model, ctx.L
        ts = ctx.timestamps
        B, off, air, kT = ctx.budget, ctx.offsets, ctx.airtimes, ctx.cycle_end
        self.fol = fol = [i for i in range(ctx.L) if max(off[i], 0.0) + air[i] < B]
        steps = [None]  # steps[n]: fol[n - 1] -> fol[n], None for a zero length
        for i, j in zip(fol, fol[1:]):
            dt = ts[j] - ts[i]
            steps.append(model.discretize(dt) if dt else None)
        self.stacked = [s and _stacked_predictor(*s) for s in steps]
        self._pairs = pairs = [None] * (ctx.L + 1)
        pair, t_next = None, None
        for n in range(len(fol) - 1, -1, -1):
            k = fol[n]
            t = ts[k]
            if t != t_next:  # equal timestamps share one pair
                if t_next is None:
                    pair = model.boundary_operator(kT - t)
                else:  # steps[n + 1] holds the length t_next - t > 0
                    (Phi, Qd), (M, c) = steps[n + 1], pair
                    pair = (Phi.T @ M @ Phi, float(np.vdot(M, Qd)) + c)
            pairs[k], t_next = pair, t
        pairs[self.anchor] = model.boundary_operator(kT - ctx.t0)

    def rank(self, cov: np.ndarray, j: int) -> float:
        """``<M_j, cov> + c_j`` of ``cov`` held at j, the anchor or a root
        follower."""
        pair = self._pairs[j]
        return float(np.vdot(pair[0], cov)) + pair[1]

    def rank_rows(self, rows: np.ndarray, j: int) -> np.ndarray:
        """``rank`` of each row of a stack of flattened covariances held at j."""
        M, c = self._pairs[j]
        return rows.dot(M.ravel()) + c


def _tie_edge(m: float) -> float:
    """The greatest rank that ties the least rank m."""
    return m + abs(m) * MSE_TIE_RTOL


def _winner(entries):
    """The winning entry of ``(rank, seq, ...)`` tuples: with m the least
    rank, the least ``(len(seq), seq)`` among the entries ranked at or
    below ``_tie_edge(m)``.  The result does not depend on the order of
    ``entries``."""
    if len(entries) == 1:  # no second pass for a single entry
        return entries[0]
    edge = _tie_edge(min(entries)[0])
    return min((len(e[1]), e[1], e) for e in entries if e[0] <= edge)[2]


def _score(
    ctx: CycleContext, model: SystemModel, seq: tuple[int, ...], cov: np.ndarray, done: int,
    nodes_visited: int = 0, forced_empty: bool = False,
) -> ScheduleEvaluation:
    """The one place a ``ScheduleEvaluation`` is built.  ``cov`` is the
    running covariance after the first ``done`` elements of ``seq`` (the
    anchor's ``prior_cov`` when ``done`` is 0); ``kalman._sequence_boundary``
    steps it through the rest of ``seq`` and predicts it to the cycle end.
    The result records ``seq``'s end of harvest, the trace of the boundary
    covariance as its MSE, the running and boundary covariances and the
    two diagnostics, passed by name and not as ``**kwargs``, which cost a
    dict per call.  A ``cov`` that ``kalman.g_step`` chained from the
    anchor has the bits of ``kalman.sequence_mse``'s scoring from scratch.
    Unchecked: the caller checked the instance against the model."""
    t = ctx.timestamps[seq[done - 1]] if done else ctx.t0
    boundary, cov = _sequence_boundary(
        model, cov, t, [ctx.candidates[i] for i in seq[done:]], ctx.cycle_end
    )
    return ScheduleEvaluation(
        seq, end_of_harvest(seq, ctx), float(boundary.trace()), cov,
        nodes_visited, forced_empty, boundary,
    )


def _evaluate(
    ctx: CycleContext, model: SystemModel, seq: tuple[int, ...],
    nodes_visited: int = 0, forced_empty: bool = False,
) -> ScheduleEvaluation:
    """Score ``seq`` from scratch, after ``_check_instance``: ``_score``
    from the cycle's anchor, as ``kalman.sequence_mse`` scores it."""
    _check_instance(ctx, model)
    return _score(ctx, model, seq, ctx.prior_cov, 0, nodes_visited, forced_empty)


def harvest_none(ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Policy ``none``: the empty sequence, i.e. pure prediction."""
    return _evaluate(ctx, model, (), forced_empty=not 0.0 < ctx.budget)


def bnb_search(ctx: CycleContext, model: SystemModel) -> ScheduleEvaluation:
    """Branch-and-bound over the subset forest, swept in time order.

    Returns the ``_winner`` over the schedulable sequences, the empty
    sequence included whenever budget > 0; it is the sequence
    ``exhaustive_oracle`` returns.

    Only a root follower, a candidate i with ``_finish(0.0, ctx, i) < B``,
    can be in a schedulable sequence.  The search holds a frontier of
    *rows*, each a live sequence: its covariance, its end of harvest d and
    a parent pointer.  It starts with the empty row and visits the root
    followers in time order.  At follower j every row is predicted over
    the step from the previous follower, and every row with
    ``max(o_j, d) + O_j < B`` spawns the row that also takes j, updated
    with j's row of C and ranked at its creation with j's boundary pair.
    A row that skips j stays in the frontier, so after the last follower
    every schedulable sequence has been a row, unless a bound cut it.  The
    first follower's step runs the 2-D kernels of ``g_step``
    (``predict_cov``, ``kalman._update``); every later step runs the
    stacked ones, one predict and one masked update over the frontier
    (``kalman._stacked_predictor``, ``kalman._update_rows``).

    Once the frontier holds more than ``_FRONTIER_CAP`` rows, a step
    after which two or more followers are left also bounds its rows
    (``_bound``).  A row's bound is its covariance chained through every
    later follower that still fits after its d: an update never raises a
    covariance in the Loewner order, so no descendant ranks below it.
    With one follower left the bound would be the rank of the row's one
    possible child, so it would cost as much as the step it could save,
    and no bound runs.  The incumbent m is the least rank seen, of the
    rows and of each row's greedy completion, which takes each later
    follower that still fits and so is schedulable.  A row with
    ``bound * (1 - 2 * MSE_TIE_RTOL) > _tie_edge(m)`` is cut: no
    descendant can tie the least rank, and the slack covers the rounding
    between a bound and a rank.  A row that no later follower fits has no
    descendant and leaves the frontier too.  Whether or not the step
    bounds, a frontier of more than ``_ROW_LIMIT`` rows with a follower
    still to come is split in two and the halves are swept in turn, depth
    first, sharing m and the records, so memory stays bounded and the
    answer exact.

    The winner is ``_winner`` over the recorded ranks; only the rows that
    tie the least rank are decoded into sequences, through their parents.
    The stacked kernels agree with the 2-D ones only to rounding, so the
    winner is reported by ``_score`` from a 2-D prefix that the search
    holds: from the first follower's row when the winner takes ``fol[0]``,
    which has ``g_step``'s bits and saves a step, and from the prior
    otherwise.  Its ``mse`` and ``running_cov`` equal
    ``kalman.sequence_mse`` of its ``seq`` bit for bit, on any model.
    ``nodes_visited`` counts the non-empty rows created:
    every schedulable non-empty sequence, less the descendants of the rows
    a bound cut.  The bound needs a positive
    semi-definite ``prior_cov``.  ``ospkit schedule`` checks that in full,
    and so does ``decision_cycles`` for the initial covariance; each later
    anchor is a policy's boundary prediction, which it checks only for
    finite entries and non-negative variances.

    ``RankKernel(ctx, model)`` opens the instance in one step: it checks
    it against the model, finds the root followers, holds the step
    between consecutive ones and fills every boundary pair, so a cold
    loose instance pays L + 2 exponentials: anchor -> 0, the L - 1
    adjacent steps, the last candidate's pair and the anchor's.  A far
    step of the winner's chain, one that skips a root follower, costs one
    more exponential per length, as it does in ``kalman.sequence_mse``.
    """
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    kernel = RankKernel(ctx, model)
    fol, prior = kernel.fol, ctx.prior_cov
    entries = [(kernel.rank(prior, kernel.anchor), ())]
    nodes, first = 0, None
    if fol:
        j = fol[0]
        skip = predict_cov(model, prior, ctx.t0, ctx.timestamps[j])  # the empty row at t_j
        obs = ctx.observers[j]
        first = _update(skip, model.obs_row(obs), model.obs_var(obs))[0]
        entries.append((kernel.rank(first, j), (j,)))
        nodes = 1
        if len(fol) > 1:
            nodes += _sweep(kernel, np.concatenate((skip, first)).reshape(2, -1), entries)
    _, seq = _winner(entries)
    cov, done = (first, 1) if seq and seq[0] == fol[0] else (prior, 0)
    return _score(ctx, model, seq, cov, done, nodes_visited=nodes)


def _sweep(kernel: RankKernel, rows: np.ndarray, entries: list) -> int:
    """Sweep the rows of the empty sequence and of (fol[0],), both held at
    fol[0]'s timestamp and ranked in ``entries``, through the later root
    followers ``fol = kernel.fol``, as ``bnb_search`` describes.  Appends
    to ``entries`` every row that ties the least rank, and returns how
    many rows it created."""
    ctx, model, fol = kernel.ctx, kernel.model, kernel.fol
    B, off, air, observers = ctx.budget, ctx.offsets, ctx.airtimes, ctx.observers
    # Row 0 is the empty sequence and row 1 is (fol[0],); each later row
    # is recorded in a block of its follower j: (first id, j, parent ids,
    # ranks).  Until the first cut or split a row's position in the
    # frontier is its id: ``ids`` is None then, and so are the parent ids
    # of a block that every row spawned.  The incumbent m takes in the
    # blocks' ranks when a bound needs it.
    blocks = []
    m, seen, count = min(e[0] for e in entries), 0, 2
    frontier = [(1, rows, np.array([0.0, _finish(0.0, ctx, fol[0])]), None)]
    while frontier:
        n, rows, d, ids = frontier.pop()
        while n < len(fol) and len(rows):
            j = fol[n]
            step = kernel.stacked[n]
            if step is not None:
                rows = rows.dot(step[0]) + step[1]
            take = (d + air[j] < B).nonzero()[0]  # _finish(d, ctx, j) < B
            if len(take):
                if len(take) == len(rows):  # every row spawns: no selection
                    new, dj, par = rows, d, ids
                else:
                    new, dj = rows.take(take, 0), d.take(take)
                    par = take if ids is None else ids.take(take)
                new = _update_rows(new, model.obs_row(observers[j]), model.obs_var(observers[j]))
                blocks.append((count, j, par, kernel.rank_rows(new, j)))
                rows = np.concatenate((rows, new))
                d = np.concatenate((d, np.maximum(off[j], dj) + air[j]))
                if ids is not None:
                    ids = np.concatenate((ids, np.arange(count, count + len(new))))
                count += len(new)
            n += 1
            if len(fol) - n >= 2 and len(rows) > _FRONTIER_CAP:
                m = min([m, *(b[3].min() for b in blocks[seen:])])
                seen = len(blocks)
                keep, m = _bound(kernel, n, rows, d, m)
                keep = keep.nonzero()[0]
                if len(keep) < len(rows):
                    rows, d = rows.take(keep, 0), d.take(keep)
                    ids = keep if ids is None else ids.take(keep)
            if len(rows) > _ROW_LIMIT and n < len(fol):
                if ids is None:
                    ids = np.arange(count)
                half = len(rows) // 2
                frontier.append((n, rows[half:], d[half:], ids[half:]))
                rows, d, ids = rows[:half], d[:half], ids[:half]
    if blocks:
        ranks = np.concatenate([b[3] for b in blocks])
        edge = _tie_edge(min(ranks.min(), *(e[0] for e in entries)))
        tied = (ranks <= edge).nonzero()[0]
        starts = [b[0] for b in blocks]
        for i, rank in zip((tied + 2).tolist(), ranks.take(tied).tolist()):
            seq = []
            while i > 1:  # walk the parents back to row 1, (fol[0],), or row 0
                start, j, par, _ = blocks[bisect.bisect_right(starts, i) - 1]
                seq.append(j)
                i = i - start if par is None else int(par[i - start])
            if i:
                seq.append(fol[0])
            entries.append((rank, tuple(reversed(seq))))
    return count - 2


def _bound(kernel: RankKernel, n: int, rows, d, m: float):
    """(rows to keep, the new incumbent) for the frontier ``rows`` with
    ends of harvest ``d``, held at fol[n - 1]'s timestamp.  A row is kept
    unless no later follower fits it or its bound cuts it.  The greedy
    completions of the rows the bounds keep may lower the incumbent m,
    and the bounds cut again; a cut row's completion ranks at least its
    bound, so it could not lower m."""
    ctx = kernel.ctx
    keep = d + min(ctx.airtimes[k] for k in kernel.fol[n:]) < ctx.budget
    bounds = _complete(kernel, n, rows, d, greedy=False)
    keep &= bounds * (1.0 - 2.0 * MSE_TIE_RTOL) <= _tie_edge(m)
    if keep.any():
        m = min(m, _complete(kernel, n, rows[keep], d[keep], greedy=True).min())
        keep &= bounds * (1.0 - 2.0 * MSE_TIE_RTOL) <= _tie_edge(m)
    return keep, m


def _complete(kernel: RankKernel, n: int, rows, d, greedy: bool):
    """Ranks at the last follower of ``rows``, with ends of harvest ``d``
    and held at fol[n - 1]'s timestamp, chained, stacked, through fol[n:],
    with ``fol = kernel.fol``: through every follower that fits after d
    (the bound), or with ``greedy`` through each that still fits after
    the ones taken before it (the greedy completion, a schedulable
    sequence).  The caller's ``rows`` are not changed."""
    ctx, model, fol = kernel.ctx, kernel.model, kernel.fol
    B, off, air, observers = ctx.budget, ctx.offsets, ctx.airtimes, ctx.observers
    given = rows
    for i in range(n, len(fol)):
        k = fol[i]
        step = kernel.stacked[i]
        if step is not None:
            rows = rows.dot(step[0]) + step[1]
        fits = d + air[k] < B
        take = fits.nonzero()[0]
        if not len(take):
            continue
        c, r = model.obs_row(observers[k]), model.obs_var(observers[k])
        if len(take) == len(rows):  # every row fits: no selection
            rows = _update_rows(rows, c, r)
            if greedy:
                d = np.maximum(off[k], d) + air[k]
        else:
            if rows is given:  # a zero-length step has not copied them yet
                rows = rows.copy()
            rows[take] = _update_rows(rows.take(take, 0), c, r)
            if greedy:
                d = np.where(fits, np.maximum(off[k], d) + air[k], d)
    return kernel.rank_rows(rows, fol[-1])


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
    from the anchor with ``kalman._sequence_boundary`` (no pruning, no
    running-covariance reuse), rank the end of its chain with the
    instance's ``RankKernel``, and return the ``_winner``, scored by
    ``_score`` like every policy's answer.  Guarded to L <= 20.  The
    kernel opens the instance as in ``bnb_search``, so both rank with
    pairs built the same way."""
    if ctx.L > _ORACLE_MAX_L:
        raise DomainError(f"exhaustive oracle limited to L <= {_ORACLE_MAX_L}")
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    kernel = RankKernel(ctx, model)
    prior, cands = ctx.prior_cov, ctx.candidates
    m = kernel.rank(prior, kernel.anchor)  # (), schedulable as B > 0
    # Each sequence that tied the least rank seen when it was scored;
    # _winner drops those that do not tie the final least rank.
    entries = [(m, ())]
    for size in range(1, ctx.L + 1):
        for seq in itertools.combinations(range(ctx.L), size):
            if not is_schedulable(seq, ctx):
                continue
            cov = _sequence_boundary(model, prior, ctx.t0, [cands[i] for i in seq], ctx.cycle_end)[1]
            rank = kernel.rank(cov, seq[-1])
            if rank <= _tie_edge(m):
                m = min(m, rank)
                entries.append((rank, seq))
    return _score(ctx, model, _winner(entries)[1], prior, 0, nodes_visited=2**ctx.L)


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
