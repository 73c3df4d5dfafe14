"""The Observer Selection Problem: order a cycle's candidate observations,
test deadline feasibility, and search for the sequence minimizing the
predicted boundary MSE.

A sequence of candidate indices is schedulable iff its end-of-harvest time
(FCFS, non-preemptive, cycle-relative) is strictly below the harvesting
budget B = T - sum(action airtimes).  The search space is the family of
strictly ascending index tuples (a subset forest).  The branch-and-bound
search sweeps the forest in time order: it advances every live sequence
through the candidates together, over stacked covariances, each row
carrying its own sequence as one flag per candidate it took, and prunes
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
within ``MSE_TIE_RTOL`` of m (``_winner``).  ``bnb_search`` ranks each
row once, at the last follower, with that follower's boundary pair
(``RankKernel``), and ``exhaustive_oracle`` by the trace of each
sequence's boundary covariance; both pick with the same ``_winner``, and
their ranks agree to rounding, well inside the tie tolerance.
Every policy's answer is scored in one place, ``_score``, with
``kalman.sequence_mse``'s arithmetic.
"""

from __future__ import annotations

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
    search's bound needs.  ``CycleContext`` and ``decide`` (for each
    policy's boundary covariance, the next cycle's anchor) reject what
    fails it.  At a plant's few states these Python-level reads cost a
    third of two numpy reductions."""
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
    cycle's anchor.  ``gains`` holds one ``(Pc, e)`` pair per element of
    ``seq``, in order: the predicted covariance times the observer's row
    of C and the innovation variance of that element's update along the
    chain from the anchor to ``running_cov``, from which
    ``sim.run_simulation`` fuses its estimate.
    """

    seq: tuple[int, ...]
    end_of_harvest: float
    mse: float
    running_cov: np.ndarray
    nodes_visited: int = 0
    forced_empty: bool = False
    boundary_cov: np.ndarray | None = field(default=None, repr=False)
    gains: tuple = field(default=(), repr=False, compare=False)


def _check_instance(ctx: CycleContext, model: SystemModel) -> None:
    """DomainError unless every observer id of ``ctx`` names one of the
    model's observers, and DimensionError unless ``prior_cov`` is S x S
    for the model's S states; ``CycleContext`` checked that the ids are
    integers >= 0 and that ``prior_cov`` is square.  ``RankKernel``,
    ``_evaluate`` and ``exhaustive_oracle``, through which every policy
    reads the model, call it."""
    if ctx.observers:
        _observer_id(max(ctx.observers), model.n_observers)
    S, n = model.n_states, len(ctx.prior_cov)
    if n != S:
        raise DimensionError(
            f"prior_cov must be {S}x{S} for the model's {S} states, got {n}x{n}"
        )


def _followers(ctx: CycleContext) -> list[int]:
    """The root followers of ``ctx`` in time order: each candidate i with
    ``_finish(0.0, ctx, i) < B``, the only ones that can be in a
    schedulable sequence."""
    B, off, air = ctx.budget, ctx.offsets, ctx.airtimes
    return [i for i in range(ctx.L) if max(off[i], 0.0) + air[i] < B]


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
    """The one place where ``bnb_search`` ranks a covariance, and the one
    step that opens an instance with a root follower against a model:
    ``RankKernel(ctx, model)`` checks the instance (``_check_instance``)
    and fills what the search steps and ranks with.

    Only a root follower (``_followers``) can be in a schedulable
    sequence; the followers are ``fol``, in time order, passed by a caller
    that found them already.  ``stacked[n]`` holds the step from
    ``fol[n - 1]`` to ``fol[n]`` in its ``kalman._stacked_predictor`` form,
    or None for a zero length (``stacked[0]`` is None: ``bnb_search``
    steps the prior to the first follower with ``predict_cov``); the steps
    of all nonzero lengths are built in one broadcast call.

    The kernel holds two boundary pairs, both ``model.boundary_operator``'s.
    The anchor's, over kT - t0, ranks the prior once, as ``empty_rank``,
    the empty sequence's rank, which seeds the search's incumbent.  The
    last follower's, over kT - t_last, is the one a row is ranked with:
    ``rank_rows`` reads ``<M, P> + c`` of each row of a stack of
    flattened covariances held at the last follower's timestamp, their
    boundary MSE up to rounding.  Lengths add, so a row held at an earlier
    follower and carried to the last one by the steps between ranks as it
    would have there, to rounding.  So a kernel costs at most two
    exponentials besides its steps, and what it holds depends on the
    instance alone, not on what the model computed before.
    """

    def __init__(self, ctx: CycleContext, model: SystemModel, fol: list[int] | None = None):
        _check_instance(ctx, model)
        self.ctx, self.model = ctx, model
        ts, kT = ctx.timestamps, ctx.cycle_end
        self.fol = fol = _followers(ctx) if fol is None else fol
        gaps = [ts[j] - ts[i] for i, j in zip(fol, fol[1:])]  # gaps[n - 1]: fol[n - 1] -> fol[n]
        disc = [model.discretize(dt) for dt in gaps if dt]
        steps = iter(())
        if disc:  # one broadcast call builds every nonzero step
            Phi, Qd = (np.array(stack) for stack in zip(*disc))
            steps = zip(*_stacked_predictor(Phi, Qd))
        self.stacked = [None] + [next(steps) if dt else None for dt in gaps]
        M, c = model.boundary_operator(kT - ctx.t0)
        self.empty_rank = float(np.vdot(M, ctx.prior_cov)) + c
        M, c = model.boundary_operator(kT - ts[fol[-1]])
        self._pair = M.ravel(), c

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """``<M, P> + c`` of each row P of a stack of flattened covariances
        held at the last follower's timestamp, or of one such row."""
        M, c = self._pair
        return rows.dot(M) + c


def _tie_edge(m: float) -> float:
    """The greatest rank that ties the least rank m."""
    return m + abs(m) * MSE_TIE_RTOL


def _checked(ctx: CycleContext, rank: float) -> float:
    """``rank``, unless it is NaN or -inf: no rank ties those
    (``_tie_edge`` is NaN), so the search has broken down, and
    NumericError names the cycle."""
    if not rank > -math.inf:
        raise NumericError(
            f"cycle {ctx.cycle_index}: predicted MSE is {rank} for a sequence the search ranked"
        )
    return rank


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
    ctx: CycleContext, model: SystemModel, seq: tuple[int, ...], cov: np.ndarray, head: tuple,
    nodes_visited: int = 0, forced_empty: bool = False,
) -> ScheduleEvaluation:
    """The one place a ``ScheduleEvaluation`` is built.  ``head`` holds
    the ``(Pc, e)`` gains of the first ``done = len(head)`` elements of
    ``seq``, and ``cov`` is the running covariance after them (the
    anchor's ``prior_cov`` when ``head`` is empty);
    ``kalman._sequence_boundary`` steps it through the rest of ``seq``,
    recording their gains after ``head``'s, and predicts it to the cycle
    end.  The result records ``seq``'s end of harvest, the trace of the
    boundary covariance as its MSE, the running and boundary covariances,
    the two diagnostics, passed by name and not as ``**kwargs``, which
    cost a dict per call, and the gains.  A ``cov`` and ``head`` that
    ``predict_cov`` and ``kalman._update`` chained from the anchor have
    the bits of ``kalman.sequence_mse``'s scoring from scratch.
    Unchecked: the caller checked the instance against the model."""
    done = len(head)
    t = ctx.timestamps[seq[done - 1]] if done else ctx.t0
    boundary, cov, gains = _sequence_boundary(
        model, cov, t, [ctx.candidates[i] for i in seq[done:]], ctx.cycle_end
    )
    return ScheduleEvaluation(
        seq, end_of_harvest(seq, ctx), float(boundary.trace()), cov,
        nodes_visited, forced_empty, boundary, head + tuple(gains),
    )


def _evaluate(
    ctx: CycleContext, model: SystemModel, seq: tuple[int, ...],
    nodes_visited: int = 0, forced_empty: bool = False,
) -> ScheduleEvaluation:
    """Score ``seq`` from scratch, after ``_check_instance``: ``_score``
    from the cycle's anchor, as ``kalman.sequence_mse`` scores it."""
    _check_instance(ctx, model)
    return _score(ctx, model, seq, ctx.prior_cov, (), nodes_visited, forced_empty)


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
    its flags, one per root follower, set for each one it took.  It
    starts with the empty row and visits the root followers in time
    order.  At follower j every row is predicted over
    the step from the previous follower, and every row with
    ``max(o_j, d) + O_j < B`` spawns the row that also takes j, updated
    with j's row of C.  A row that skips j stays in the frontier, so after
    the last follower the frontier holds every schedulable sequence,
    unless a bound cut it.  Each row is ranked once, when its frontier
    reaches the last follower, with that follower's boundary pair
    (``RankKernel.rank_rows``): lengths add, so this is its rank at its
    own follower, to rounding, for one stacked product over the frontier.
    With one root follower nothing is swept: (fol[0],) is held at the last
    follower.  The first follower's step runs the 2-D kernels of the chain
    (``predict_cov``, ``kalman._update``); every later step runs the
    stacked ones, one predict and one masked update over the frontier
    (``kalman._stacked_predictor``, ``kalman._update_rows``).  With no
    root follower only the empty sequence is schedulable, and the search
    returns ``harvest_none``'s answer without opening a kernel.

    Once the frontier holds more than ``_FRONTIER_CAP`` rows, a step
    after which two or more followers are left also bounds its rows
    (``_bound``).  A row's bound is its covariance chained through every
    later follower that still fits after its d: an update never raises a
    covariance in the Loewner order, so no descendant ranks below it.
    With one follower left the bound would be the rank of the row's one
    possible child, so it would cost as much as the step it could save,
    and no bound runs.  The incumbent m starts at the empty sequence's
    rank with the anchor's pair (``RankKernel.empty_rank``) and takes in
    the least rank of each row's greedy completion, which takes each later
    follower that still fits, so is schedulable and ranks at or below its
    row, and of each frontier that reached the last follower.  A row with
    ``bound * (1 - 2 * MSE_TIE_RTOL) > _tie_edge(m)`` is cut: no
    descendant can tie the least rank, and the slack covers the rounding
    between a bound and a rank.  A row that no later follower fits has no
    descendant; its bound is its rank, so it stays in the frontier only
    while it ties m.  Whether or not the step bounds, a frontier of more
    than ``_ROW_LIMIT`` rows with a follower still to come is split in two
    and the halves are swept in turn, depth first, sharing m and the
    records, so memory stays bounded and the answer exact.

    The winner is ``_winner`` over the recorded ranks; only the rows that
    tie the least rank are read back into sequences, from their flags.
    ``exhaustive_oracle`` ranks by the trace of each sequence's 2-D chain
    instead, so the two agree to rounding, well inside ``MSE_TIE_RTOL``,
    not by construction.
    The stacked kernels agree with the 2-D ones only to rounding, so the
    winner is reported by ``_score`` from a 2-D prefix that the search
    holds: from the first follower's row and that step's gain when the
    winner takes ``fol[0]``, which have the chain's bits and save a step,
    and from the prior otherwise.  Its ``mse`` and ``running_cov`` equal
    ``kalman.sequence_mse`` of its ``seq`` bit for bit, on any model, and
    its ``gains`` those of the chain from the anchor.
    ``nodes_visited`` counts the non-empty rows created:
    every schedulable non-empty sequence, less the descendants of the rows
    a bound cut.  The bound needs a positive
    semi-definite ``prior_cov``.  ``ospkit schedule`` checks that in full,
    and so does ``decision_cycles`` for the initial covariance; each later
    anchor is a policy's boundary prediction, which ``decide`` checks only
    for finite entries and non-negative variances.  A rank that is NaN or
    -inf, where the search compares it, raises NumericError
    (``_checked``).

    ``RankKernel(ctx, model)`` opens the instance in one step: it checks
    it against the model, finds the root followers, builds the steps
    between consecutive ones in one call and holds the anchor's and the
    last follower's boundary pairs, so a cold loose instance pays L + 2
    exponentials: anchor -> 0, the L - 1 adjacent steps, the last
    candidate's pair and the anchor's.  A far step of the winner's chain,
    one that skips a root follower, costs one more exponential per
    length, as it does in ``kalman.sequence_mse``.
    """
    fol = _followers(ctx)
    if not fol:  # only the empty sequence can be schedulable, as when budget <= 0
        return harvest_none(ctx, model)
    kernel = RankKernel(ctx, model, fol)
    prior, j = ctx.prior_cov, fol[0]
    skip = predict_cov(model, prior, ctx.t0, ctx.timestamps[j])  # the empty row at t_j
    obs = ctx.observers[j]
    first, Pc, e = _update(skip, model.obs_row(obs), model.obs_var(obs))
    if len(fol) > 1:
        seq, nodes = _sweep(kernel, np.concatenate((skip, first)).reshape(2, -1))
    else:  # nothing to sweep: (j,) is held at the last follower
        rank = _checked(ctx, float(kernel.rank_rows(first.ravel())))
        seq, nodes = _winner([(kernel.empty_rank, ()), (rank, (j,))])[1], 1
    if seq and seq[0] == j:
        return _score(ctx, model, seq, first, ((Pc, e),), nodes_visited=nodes)
    return _score(ctx, model, seq, prior, (), nodes_visited=nodes)


def _sweep(kernel: RankKernel, rows: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Sweep the rows of the empty sequence and of (fol[0],), both held at
    fol[0]'s timestamp, through the later root followers
    ``fol = kernel.fol``, as ``bnb_search`` describes, and return the
    ``_winner``'s sequence and how many non-empty rows there were,
    (fol[0],) included.  Each row carries a bool flag per follower, set
    for each one it took, which is taken, cut, split and concatenated with
    its covariance and its end of harvest, so a row is its own sequence
    and no parent tree is kept.  A frontier's rows, or a half's after a
    split, are ranked once, when it reaches the last follower, with the
    kernel's last-follower pair; the incumbent starts at the anchor pair's
    ``kernel.empty_rank``."""
    ctx, model, fol = kernel.ctx, kernel.model, kernel.fol
    B, off, air, observers = ctx.budget, ctx.offsets, ctx.airtimes, ctx.observers
    # Row 0 is the empty sequence and row 1 is (fol[0],); ``took[r, n]``
    # flags whether row r took fol[n], so row r is the sequence
    # compress(fol, took[r]).  ``ranked`` holds (took, ranks) of each
    # frontier's rows once it reaches the last follower.
    took = np.zeros((2, len(fol)), dtype=bool)
    took[1, 0] = True
    ranked = []
    m, count = kernel.empty_rank, 2
    frontier = [(1, rows, np.array([0.0, _finish(0.0, ctx, fol[0])]), took)]
    while frontier:
        n, rows, d, took = frontier.pop()
        while n < len(fol) and len(rows):
            j = fol[n]
            step = kernel.stacked[n]
            if step is not None:
                rows = rows.dot(step[0]) + step[1]
            take = (d + air[j] < B).nonzero()[0]  # _finish(d, ctx, j) < B
            if len(take):
                if len(take) == len(rows):  # every row spawns: no selection
                    new, dj, tj = rows, d, took
                else:
                    new, dj, tj = rows.take(take, 0), d.take(take), took.take(take, 0)
                new = _update_rows(new, model.obs_row(observers[j]), model.obs_var(observers[j]))
                rows = np.concatenate((rows, new))
                d = np.concatenate((d, np.maximum(off[j], dj) + air[j]))
                took = np.concatenate((took, tj))
                took[-len(new):, n] = True
                count += len(new)
            n += 1
            if len(fol) - n >= 2 and len(rows) > _FRONTIER_CAP:
                keep, m = _bound(kernel, n, rows, d, m)
                keep = keep.nonzero()[0]
                if len(keep) < len(rows):
                    rows, d, took = rows.take(keep, 0), d.take(keep), took.take(keep, 0)
            if len(rows) > _ROW_LIMIT and n < len(fol):
                half = len(rows) // 2
                frontier.append((n, rows[half:], d[half:], took[half:]))
                rows, d, took = rows[:half], d[:half], took[:half]
        if len(rows):  # at the last follower
            ranks = kernel.rank_rows(rows)
            ranked.append((took, ranks))
            if frontier:  # for the bounds of the halves still to sweep
                m = min(m, ranks.min())
    if not ranked:  # a bound cut every row, which only NaN bounds do
        raise NumericError(f"cycle {ctx.cycle_index}: the search's bounds are not finite")
    took, ranks = (np.concatenate(parts) for parts in zip(*ranked))
    tied = (ranks <= _tie_edge(_checked(ctx, ranks.min()))).nonzero()[0]  # NaN if any rank is
    # () also enters with empty_rank, the incumbent's seed, so that the
    # least rank here is at most every incumbent a bound cut against.
    entries = [(kernel.empty_rank, ())]
    for rank, flags in zip(ranks.take(tied).tolist(), took.take(tied, 0).tolist()):
        entries.append((rank, tuple(itertools.compress(fol, flags))))
    return _winner(entries)[1], count - 1


def _bound(kernel: RankKernel, n: int, rows, d, m: float):
    """(rows to keep, the new incumbent) for the frontier ``rows`` with
    ends of harvest ``d``, held at fol[n - 1]'s timestamp.  A row is kept
    unless its bound cuts it.  The greedy completions of the rows the
    bounds keep, ranked at the last follower at or below their rows, may
    lower the incumbent m, and the bounds cut again; a cut row's
    completion ranks at least its bound, so it could not lower m.
    A row that no later follower fits is its own greedy completion, and
    its bound, its covariance carried to the last follower, is its rank:
    it stays only while it ties m, and is ranked with the frontier."""
    bounds = _complete(kernel, n, rows, d, greedy=False)
    keep = bounds * (1.0 - 2.0 * MSE_TIE_RTOL) <= _tie_edge(m)
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
    return kernel.rank_rows(rows)


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
    running-covariance reuse), rank it by the trace of its boundary
    covariance, which is its ``kalman.sequence_mse``, and return the
    ``_winner``, scored by ``_score`` like every policy's answer.  Guarded
    to L <= 20; the instance is checked against the model
    (``_check_instance``).  ``bnb_search`` ranks the same sequences with
    its boundary pair over stacked chains, which agree with these ranks to
    rounding, well inside ``MSE_TIE_RTOL``."""
    if ctx.L > _ORACLE_MAX_L:
        raise DomainError(f"exhaustive oracle limited to L <= {_ORACLE_MAX_L}")
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    _check_instance(ctx, model)
    prior, cands = ctx.prior_cov, ctx.candidates
    # Each sequence that tied the least rank seen when it was scored;
    # _winner drops those that do not tie the final least rank.
    m, entries = math.inf, []
    for size in range(ctx.L + 1):  # () is schedulable, as B > 0
        for seq in itertools.combinations(range(ctx.L), size):
            if not is_schedulable(seq, ctx):
                continue
            chain = [cands[i] for i in seq]
            rank = float(_sequence_boundary(model, prior, ctx.t0, chain, ctx.cycle_end)[0].trace())
            if rank <= _tie_edge(m):
                m = min(m, rank)
                entries.append((rank, seq))
    return _score(ctx, model, _winner(entries)[1], prior, (), nodes_visited=2**ctx.L)


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
    """Run the named policy on one instance and check its answer in one
    place.  An unknown policy raises ConfigError.  A predicted MSE that is
    not finite, or a boundary covariance, the next cycle's anchor, with a
    non-finite entry or a negative variance (``_finite_variances``; a
    negative MSE has one) raises NumericError naming the cycle."""
    ev = _policy_rule(policy)(ctx, model)
    if not (math.isfinite(ev.mse) and _finite_variances(ev.boundary_cov)):
        raise NumericError(
            f"cycle {ctx.cycle_index}: predicted MSE is {ev.mse}; it and the boundary "
            "covariance, the next cycle's anchor, must be finite with no negative variance"
        )
    return ev
