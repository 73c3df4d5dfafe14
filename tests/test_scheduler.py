"""Scheduler tests: harvest recursion against a closed-form oracle,
schedulability edge cases, branch-and-bound vs exhaustive enumeration,
greedy baseline behavior, an order-independent tie rule, and the soundness
of both pruning rules."""
from __future__ import annotations

import gc
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from ospkit import (
    Candidate,
    CycleContext,
    DimensionError,
    DomainError,
    NumericError,
    SystemModel,
    bnb_search,
    end_of_harvest,
    exhaustive_oracle,
    g_step,
    greedy_search,
    harvesting_budget,
    is_schedulable,
    order_observations,
    predict_cov,
    sequence_mse,
)
from ospkit import decision_cycles, dynamics, kalman, preset_config, scheduler
from ospkit.config import parse_config_dict
from ospkit.scheduler import (
    MSE_TIE_RTOL, RankKernel, _evaluate, _finish, _winner, harvest_all, harvest_none,
)

from conftest import (
    T3, harvest_closed_form, make_dup_model, make_mid_model, make_model, make_search_model,
    mid_context, random_context, schedulable_count,
)


def far_steps(ctx, seq) -> int:
    """How many steps of ``seq``'s chain from the anchor are far: each skips
    a root follower across a nonzero gap, so opening the instance did not
    discretize its length."""
    pos = {j: n for n, j in enumerate(scheduler._followers(ctx))}
    ts = ctx.timestamps
    chain = [(-1, ctx.t0)] + [(pos[j], ts[j]) for j in seq]
    return sum(b > a + 1 and tb > ta for (a, ta), (b, tb) in zip(chain, chain[1:]))


def carried(kernel, n, cov) -> np.ndarray:
    """``cov``, held at ``kernel.fol[n]``, as a flattened row carried to the
    last follower by the kernel's stacked steps, as the sweep carries it."""
    row = cov.reshape(1, -1)
    for step in kernel.stacked[n + 1:]:
        if step is not None:
            row = row.dot(step[0]) + step[1]
    return row


def chain(ctx, model, seq) -> list[np.ndarray]:
    """The running covariances of ``seq``'s chain from the anchor, one
    ``g_step`` per candidate."""
    cov, t, out = ctx.prior_cov, ctx.t0, []
    for j in seq:
        cov = g_step(model, cov, t, ctx.timestamps[j], ctx.observers[j])
        t = ctx.timestamps[j]
        out.append(cov)
    return out


def takes_first_follower(ctx, seq) -> bool:
    """Whether ``seq`` takes the instance's first root follower, so that
    ``bnb_search`` reports it from that follower's row."""
    fol = scheduler._followers(ctx)
    return bool(seq) and seq[0] == fol[0]


def assert_same_score(got, want, where):
    """``got`` and ``want`` score one sequence with the same bits in every
    field that scoring sets, the gains included."""
    assert (got.seq, got.mse, got.end_of_harvest) == (want.seq, want.mse, want.end_of_harvest), where
    assert got.running_cov.tobytes() == want.running_cov.tobytes(), where
    assert got.boundary_cov.tobytes() == want.boundary_cov.tobytes(), where
    assert len(got.gains) == len(want.gains) == len(got.seq), where
    for (Pc, e), (want_Pc, want_e) in zip(got.gains, want.gains):
        assert (Pc.tobytes(), e) == (want_Pc.tobytes(), want_e), where


def ctx_from(offs_airs, actions=(), T=0.01, k=1, n_states=3):
    """Context with candidates given as (relative offset, airtime) pairs."""
    cands = tuple(
        Candidate(timestamp=(k - 1) * T + o, airtime=a, observer=i)
        for i, (o, a) in enumerate(offs_airs)
    )
    return CycleContext(
        candidates=cands,
        action_airtimes=tuple(actions),
        T=T,
        cycle_index=k,
        t0=(k - 1) * T,
        prior_cov=np.eye(n_states),
    )


# Action airtimes for a 10 ms cycle: a positive budget, a budget <= 0, and a
# positive budget of 0.0005 that no airtime of 1 ms fits.
ACTIONS = {"positive": (0.0,), "degenerate": (0.02,), "no-follower": (0.0095,)}


class TestOrdering:
    def test_sorts_by_timestamp_then_observer(self):
        raw = [
            Candidate(0.004, 1e-4, 3),
            Candidate(0.002, 1e-4, 5),
            Candidate(0.004, 1e-4, 1),
        ]
        got = order_observations(raw)
        assert [(c.timestamp, c.observer) for c in got] == [
            (0.002, 5),
            (0.004, 1),
            (0.004, 3),
        ]


class TestCycleContext:
    @pytest.mark.parametrize("observer", [-1, True, 1.5, "2", None])
    def test_rejects_bad_observer_id(self, observer):
        # -1 used to be ranked as the last observer's row, and True as
        # observer 1's, by every search.
        cands = (Candidate(0.002, 1e-3, 0), Candidate(0.001, 1e-3, observer))
        message = rf"^candidate observer ids must be integers >= 0, got {re.escape(repr(observer))}$"
        with pytest.raises(DomainError, match=message):
            CycleContext(cands, (), 0.01, 1, None, np.eye(3))

    @pytest.mark.parametrize("observer", [None, "2"])
    def test_checks_the_ids_before_it_sorts(self, observer):
        # At a tied timestamp the sort compares the ids, which ended in a
        # TypeError before the ids were checked.
        cands = (Candidate(0.001, 1e-3, 0), Candidate(0.001, 1e-3, observer))
        message = rf"^candidate observer ids must be integers >= 0, got {re.escape(repr(observer))}$"
        with pytest.raises(DomainError, match=message):
            CycleContext(cands, (), 0.01, 1, None, np.eye(3))

    def test_numpy_integer_observer_passes(self):
        ctx = CycleContext((Candidate(0.001, 1e-3, np.int64(2)),), (), 0.01, 1, None, np.eye(3))
        assert ctx.observers == (2,)

    @pytest.mark.parametrize(
        "T, message",
        [
            # True was taken as 1.0, nan was reported as the anchor's
            # problem and -0.01 as a candidate after the cycle end.
            (True, "decision period T must be a number, got True"),
            (float("nan"), "decision period T must be finite and > 0, got nan"),
            (float("inf"), "decision period T must be finite and > 0, got inf"),
            (0.0, "decision period T must be finite and > 0, got 0.0"),
            (-0.01, "decision period T must be finite and > 0, got -0.01"),
        ],
        ids=["bool", "nan", "inf", "zero", "negative"],
    )
    def test_checks_T_as_the_model_does(self, T, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            CycleContext((Candidate(0.002, 1e-3, 0),), (), T, 1, None, np.eye(3))

    @pytest.mark.parametrize(
        "prior, error",
        [
            # -I and an all-NaN prior were searched: bnb_search returned a
            # negative MSE for -I and raised a bare ValueError for NaN.
            (-np.eye(3), DomainError),
            (np.full((3, 3), np.nan), DomainError),
            (np.diag([1.0, np.inf, 1.0]), DomainError),
            (np.ones((2, 3)), DimensionError),
            (np.ones(3), DimensionError),
        ],
        ids=["negative", "nan", "inf", "not-square", "vector"],
    )
    def test_rejects_a_prior_that_is_no_covariance(self, prior, error):
        with pytest.raises(error, match="^prior_cov "):
            CycleContext((Candidate(0.002, 1e-3, 0),), (), 0.01, 1, None, prior)


class TestBudget:
    def test_no_actions(self):
        assert harvesting_budget(0.01, ()) == pytest.approx(0.01)

    def test_actions_subtract(self):
        assert harvesting_budget(0.01, (0.002, 0.003)) == pytest.approx(0.005)

    def test_can_go_negative(self):
        assert harvesting_budget(0.01, (0.02,)) == pytest.approx(-0.01)


class TestEndOfHarvest:
    def test_empty(self):
        ctx = ctx_from([(0.001, 1e-4)])
        assert end_of_harvest((), ctx) == 0.0

    def test_single(self):
        ctx = ctx_from([(0.002, 0.0005)])
        assert end_of_harvest((0,), ctx) == pytest.approx(0.0025)

    def test_domino_queueing(self):
        # Three back-to-back transfers: the second and third queue behind
        # the first even though their own offsets are earlier than the drain.
        ctx = ctx_from([(0.001, 0.003), (0.002, 0.002), (0.003, 0.001)])
        # d1 = 0.004; d2 = max(0.004, 0.004 + 0.002) = 0.006; d3 = 0.007.
        assert end_of_harvest((0, 1, 2), ctx) == pytest.approx(0.007, rel=1e-12)

    def test_closed_form_oracle_random(self):
        rng = np.random.default_rng(55)
        model = make_model(rng.normal(size=(10, 3)), np.diag([1e-2] * 10), (T3,) * 10)
        for _ in range(1000):
            ctx = random_context(rng, model)
            L = ctx.L
            size = int(rng.integers(0, L + 1))
            seq = tuple(sorted(rng.choice(L, size=size, replace=False).tolist()))
            got = end_of_harvest(seq, ctx)
            want = harvest_closed_form(seq, ctx)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_extension_strictly_increases(self):
        # Appending a candidate always pushes the drain later (airtimes are
        # positive), which is what makes feasibility pruning sound.
        rng = np.random.default_rng(57)
        model = make_model(rng.normal(size=(10, 3)), np.diag([1e-2] * 10), (T3,) * 10)
        for _ in range(500):
            ctx = random_context(rng, model)
            L = ctx.L
            size = int(rng.integers(1, L + 1))
            seq = sorted(rng.choice(L, size=size, replace=False).tolist())
            d_prefix = end_of_harvest(tuple(seq[:-1]), ctx)
            d_full = end_of_harvest(tuple(seq), ctx)
            assert d_full > d_prefix


class TestSchedulability:
    def test_strict_deadline(self):
        ctx = ctx_from([(0.0, 0.01)])  # drain ends exactly at the budget
        assert not is_schedulable((0,), ctx)

    def test_just_inside(self):
        ctx = ctx_from([(0.0, 0.0099)])
        assert is_schedulable((0,), ctx)

    def test_empty_always_schedulable_with_positive_budget(self):
        ctx = ctx_from([(0.001, 1e-4)])
        assert is_schedulable((), ctx)


class TestSearches:
    @pytest.fixture()
    def model6(self):
        rng = np.random.default_rng(3)
        C = rng.normal(size=(6, 3))
        return make_model(C, np.diag([1e-2, 1.0, 1e-2, 1.0, 1e-2, 1.0]), (T3,) * 6)

    def test_single_candidate(self, model6):
        ctx = ctx_from([(0.001, 1e-4)])
        got = bnb_search(ctx, model6)
        assert got.seq == (0,)
        assert not got.forced_empty

    def test_strict_deadline_inside_the_search(self, model6):
        # Dyadic airtimes: all three candidates end exactly at the budget
        # B = T = 1, so only pairs fit, though all three would rank best.
        ctx = ctx_from([(0.0, 0.25), (0.0, 0.25), (0.0, 0.5)], T=1.0)
        assert end_of_harvest((0, 1, 2), ctx) == ctx.budget
        got = bnb_search(ctx, model6)
        assert got.seq == exhaustive_oracle(ctx, model6).seq
        assert len(got.seq) == 2 and got.end_of_harvest < ctx.budget

    def test_forced_empty_on_degenerate_budget(self, model6):
        ctx = ctx_from([(0.001, 1e-4)], actions=(0.02,))
        for search in (bnb_search, greedy_search, exhaustive_oracle):
            got = search(ctx, model6)
            assert got.seq == ()
            assert got.forced_empty

    @pytest.mark.parametrize(
        "search", [bnb_search, greedy_search, harvest_all, harvest_none, exhaustive_oracle]
    )
    def test_read_only_prior_is_never_written(self, model6, search):
        # Synchronous candidates at t0: every first predict is zero-length
        # and returns the prior itself, so a write through it would raise.
        P = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
        P.setflags(write=False)
        ctx = replace(ctx_from([(0.0, 1e-3)] * 6, actions=(4e-3,)), prior_cov=P)
        search(ctx, model6)
        sequence_mse(model6, P, ctx.t0, ctx.candidates, ctx.cycle_end)

    @pytest.mark.parametrize(
        "search", [bnb_search, greedy_search, harvest_all, harvest_none, exhaustive_oracle]
    )
    @pytest.mark.parametrize("budget", ["positive", "degenerate", "no-follower"])
    def test_rejects_an_observer_the_model_lacks(self, search, budget):
        # The context does not know the model; each entry checks the ids
        # against it, where a search ended in a bare IndexError.  A budget
        # of 0.0005 leaves no root follower, so bnb_search returns
        # harvest_none's answer, which checks the ids too.
        model = parse_config_dict(preset_config("blackout-6of6-100000")).model
        actions = ACTIONS[budget]
        ctx = CycleContext(
            (Candidate(0.0, 1e-3, 0), Candidate(0.001, 1e-3, 6)), actions, 0.01, 1, None,
            np.eye(3),
        )
        with pytest.raises(DomainError, match=r"^candidate observer ids must be < 6, .* got 6$"):
            search(ctx, model)

    @pytest.mark.parametrize(
        "search", [bnb_search, greedy_search, harvest_all, harvest_none, exhaustive_oracle]
    )
    @pytest.mark.parametrize("budget", ["positive", "degenerate", "no-follower"])
    def test_rejects_a_prior_of_another_size(self, search, budget):
        # The context does not know the model either; a 2 x 2 prior on the
        # 3-state model ended in bare numpy errors.
        model = parse_config_dict(preset_config("blackout-6of6-100000")).model
        actions = ACTIONS[budget]
        ctx = CycleContext((Candidate(0.001, 1e-3, 0),), actions, 0.01, 1, None, np.eye(2))
        with pytest.raises(DimensionError, match=r"^prior_cov must be 3x3 .* got 2x2$"):
            search(ctx, model)

    def test_bnb_without_a_root_follower_is_harvest_none(self, search_model, monkeypatch):
        # With no root follower only the empty sequence is schedulable, so
        # bnb_search returns harvest_none's evaluation, bit for bit, without
        # opening a RankKernel.  Most rate-slow cycles offer no follower;
        # the seeded instances get a budget that every airtime misses.
        cfg = parse_config_dict(preset_config("rate-slow"))
        pool = [(ctx, cfg.model) for ctx, _ in
                decision_cycles(cfg.model, cfg.channel, "bnb", cfg.initial_cov(), 60)]
        rng = np.random.default_rng(107)
        for _ in range(40):
            ctx = random_context(rng, search_model, int(rng.integers(1, 11)))
            B = rng.uniform(0.2, 0.99) * min(o + a for o, a in zip(ctx.offsets, ctx.airtimes))
            pool.append((replace(ctx, action_airtimes=(ctx.T - B,)), search_model))
        opened = []
        kernel = scheduler.RankKernel
        monkeypatch.setattr(scheduler, "RankKernel", lambda *a: opened.append(1) or kernel(*a))
        bare = 0
        for n, (ctx, model) in enumerate(pool):
            if scheduler._followers(ctx):
                continue
            bare += 1
            got, want = bnb_search(ctx, model), harvest_none(ctx, model)
            assert_same_score(got, want, n)
            assert got.nodes_visited == 0 and not got.forced_empty, n
        assert not opened
        assert bare > 80, bare

    def test_bnb_matches_exhaustive(self, search_model):
        rng = np.random.default_rng(61)
        for _ in range(60):
            ctx = random_context(rng, search_model, L=int(rng.integers(1, 9)))
            got = bnb_search(ctx, search_model)
            want = exhaustive_oracle(ctx, search_model)
            assert got.seq == want.seq, (got.seq, want.seq)
            assert got.mse == pytest.approx(want.mse, rel=1e-9)

    def test_bnb_deterministic(self, search_model):
        rng = np.random.default_rng(63)
        ctx = random_context(rng, search_model, L=7)
        a = bnb_search(ctx, search_model)
        b = bnb_search(ctx, search_model)
        assert a.seq == b.seq and a.mse == b.mse and a.nodes_visited == b.nodes_visited

    def test_a_search_leaves_no_reference_cycle(self):
        # A search frees its objects on return, not at the next collector
        # pass: with the collector off, ten searches on rate-fast and on
        # blackout instances leave nothing for it to find.
        instances = []
        for name in ("rate-fast", "blackout-6of6-100000"):
            cfg = parse_config_dict(preset_config(name))
            cycles = decision_cycles(cfg.model, cfg.channel, "bnb", cfg.initial_cov(), 10)
            instances += [(ctx, cfg.model) for ctx, _ in cycles]
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for ctx, model in instances:
                bnb_search(ctx, model)
            found = gc.collect()
        finally:
            gc.set_debug(0)
            gc.enable()
            gc.garbage.clear()
        assert found == 0

    def test_tie_break_prefers_fewer_then_lexicographic(self, model6):
        # Two identical observers (same row, same noise, same timestamp):
        # sequences (0,) and (1,) tie exactly; lexicographic wins.  And the
        # pair (0, 1) never beats the singleton by more than the tie slack
        # since the second identical reading still helps; so compare to an
        # exact-duplicate setup where it does not: same timestamp, r huge.
        C = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        model = make_model(C, np.diag([1e12, 1e12]), (T3,) * 2)
        ctx = ctx_from([(0.002, 1e-4), (0.002, 1e-4)])
        got = bnb_search(ctx, model)
        # With near-infinite noise every subset ties at the empty-sequence
        # MSE; fewest observations wins -> empty sequence.
        assert got.seq == ()
        assert not got.forced_empty

    def test_winner_ignores_the_order_of_a_tie_chain(self):
        # a ties b and b ties c, but a does not tie c.  Folding pairwise,
        # the order decides: (a, b, c) leaves c, (a, c, b) leaves b.  The
        # winner is the shortest sequence tied with the least rank: b.
        a = (1.0, (0, 1, 2))
        b = (1.0 + 0.7 * MSE_TIE_RTOL, (0, 2))
        c = (1.0 + 1.4 * MSE_TIE_RTOL, (1,))
        for entries in itertools.permutations([a, b, c]):
            assert _winner(list(entries)) is b, entries

    def test_greedy_takes_feasible_prefix(self, model6):
        ctx = ctx_from([(0.001, 0.004), (0.002, 0.004), (0.003, 0.004)])
        # Budget 0.01: after two transfers the drain is at 0.009; adding the
        # third hits 0.013 > 0.01, so first-come-first-served keeps (0, 1).
        got = greedy_search(ctx, model6)
        assert got.seq == (0, 1)
        assert got.nodes_visited == 3

    def test_greedy_all_feasible(self, model6):
        ctx = ctx_from([(0.001, 1e-4), (0.002, 1e-4), (0.003, 1e-4)])
        assert greedy_search(ctx, model6).seq == (0, 1, 2)

    def test_bnb_beats_greedy_on_blocking_instance(self):
        # A high-noise early candidate fits first and blocks the low-noise
        # late one under the budget; optimal search skips it.
        C = np.array([[1.0, 1, 1], [1.0, 1, 1]])
        model = make_model(C, np.diag([1.0, 1e-4]), (T3,) * 2)
        ctx = ctx_from([(0.001, 0.005), (0.004, 0.005)])
        greedy = greedy_search(ctx, model)
        best = bnb_search(ctx, model)
        assert greedy.seq == (0,)
        assert best.seq == (1,)
        assert best.mse < greedy.mse

    def test_dominance_chain(self, search_model):
        rng = np.random.default_rng(67)
        for _ in range(40):
            ctx = random_context(rng, search_model, L=int(rng.integers(1, 9)))
            b = bnb_search(ctx, search_model)
            g = greedy_search(ctx, search_model)
            e = exhaustive_oracle(ctx, search_model)
            assert b.mse <= g.mse + 1e-12 * abs(g.mse)
            assert e.mse <= b.mse + 1e-12 * abs(b.mse)

    def test_node_count_bounds(self, search_model):
        # nodes_visited counts the non-empty rows the sweep created, one per
        # schedulable sequence at most.
        rng = np.random.default_rng(69)
        for _ in range(20):
            L = int(rng.integers(1, 9))
            ctx = random_context(rng, search_model, L=L)
            b = bnb_search(ctx, search_model)
            count = schedulable_count(ctx)
            assert min(1, count) <= b.nodes_visited <= count <= 2**L - 1
            assert exhaustive_oracle(ctx, search_model).nodes_visited == 2**L

    def test_exhaustive_checks_all_subsets(self, search_model):
        # Cross-check the oracle itself on a tiny instance by brute force.
        rng = np.random.default_rng(71)
        ctx = random_context(rng, search_model, L=4)
        want = exhaustive_oracle(ctx, search_model)
        feasible = [
            seq
            for n in range(5)
            for seq in itertools.combinations(range(4), n)
            if is_schedulable(seq, ctx)
        ]
        assert want.seq in feasible

    def test_exhaustive_guards_large_instances(self, search_model):
        rng = np.random.default_rng(73)
        big = tuple(
            Candidate(timestamp=float(i) * 1e-4, airtime=1e-5, observer=i % 10)
            for i in range(25)
        )
        ctx = CycleContext(
            candidates=big,
            action_airtimes=(),
            T=0.01,
            cycle_index=1,
            t0=0.0,
            prior_cov=np.eye(3),
        )
        with pytest.raises(DomainError):
            exhaustive_oracle(ctx, search_model)


def seq_mse(ctx, model, seq):
    cands = [ctx.candidates[i] for i in seq]
    return sequence_mse(model, ctx.prior_cov, ctx.t0, cands, ctx.cycle_end)[0]


class TestBound:
    """The objective bound of bnb_search: its premises (monotonicity and
    admissibility), its effect on the node count, and that it never
    changes the answer."""

    @pytest.mark.parametrize("which", ["search", "dup"])
    def test_mse_never_rises_under_insertion(self, which, search_model, dup_model):
        model = search_model if which == "search" else dup_model
        rng = np.random.default_rng(81)
        for _ in range(40):
            L = int(rng.integers(2, 9))
            ctx = random_context(rng, model, L, loose=bool(rng.integers(2)), ties=True)
            size = int(rng.integers(0, L))
            seq = tuple(sorted(rng.choice(L, size=size, replace=False).tolist()))
            base = seq_mse(ctx, model, seq)
            for i in set(range(L)) - set(seq):
                grown = seq_mse(ctx, model, tuple(sorted(seq + (i,))))
                assert grown <= base * (1 + 1e-12), (seq, i, grown, base)

    @pytest.mark.parametrize("loose", [True, False])
    def test_bound_is_admissible(self, loose, search_model):
        # At every schedulable node, the MSE of the node extended by all its
        # followers is at most the MSE of each schedulable descendant.
        rng = np.random.default_rng(83)
        for _ in range(6):
            ctx = random_context(rng, search_model, int(rng.integers(3, 8)), loose=loose)
            feasible = [
                seq
                for n in range(ctx.L + 1)
                for seq in itertools.combinations(range(ctx.L), n)
                if is_schedulable(seq, ctx)
            ]
            mse = {seq: seq_mse(ctx, search_model, seq) for seq in feasible}
            for seq in feasible:
                d = end_of_harvest(seq, ctx)
                after = range(seq[-1] + 1 if seq else 0, ctx.L)
                fol = tuple(i for i in after if _finish(d, ctx, i) < ctx.budget)
                bound = seq_mse(ctx, search_model, seq + fol)
                for desc in feasible:
                    if desc[: len(seq)] == seq:
                        assert bound <= mse[desc] * (1 + 1e-12), (seq, desc)

    def test_bnb_matches_exhaustive_up_to_twelve(self, search_model):
        rng = np.random.default_rng(85)
        for L in range(1, 13):
            for loose in (True, False):
                ctx = random_context(rng, search_model, L, loose=loose)
                got = bnb_search(ctx, search_model)
                want = exhaustive_oracle(ctx, search_model)
                assert got.seq == want.seq, (L, loose, got.seq, want.seq)
                assert got.mse == pytest.approx(want.mse, rel=1e-9)

    def test_loose_twelve_visits_few_nodes(self, search_model):
        # Feasibility alone checks all 2^12 - 1 sequences of a loose L = 12
        # instance; the bound must cut that by more than a factor of 8.
        rng = np.random.default_rng(87)
        for _ in range(3):
            ctx = random_context(rng, search_model, 12, loose=True)
            assert bnb_search(ctx, search_model).nodes_visited < 2**12 // 8

    @pytest.mark.parametrize("L", [8, 12])
    def test_sibling_cut_bounds_the_g_steps(self, L, search_model, monkeypatch):
        # The sweep steps its rows with the stacked kernels, and 2-D steps
        # run only in the winner's report, which starts from the first
        # follower's row that the search holds: L - 1 steps of kalman's
        # chain when the winner is every candidate (L when the report
        # chained from the anchor).  The chain steps with predict_cov and
        # _update itself, keeping each step's gain, so g_step runs 0 times
        # (L - 1 while the chain called it and dropped the gain).  The
        # depth-first search took L(L+1)/2 + 1 steps here, and 92 and 298
        # before its sibling cut.
        calls, g_steps = [], []
        update, step = kalman._update, kalman.g_step
        monkeypatch.setattr(kalman, "_update", lambda *a: calls.append(1) or update(*a))
        monkeypatch.setattr(kalman, "g_step", lambda *a: g_steps.append(1) or step(*a))
        rng = np.random.default_rng(86)
        for _ in range(3):
            ctx = random_context(rng, search_model, L, loose=True)
            calls.clear()
            assert bnb_search(ctx, search_model).seq == tuple(range(L))
            assert len(calls) == L - 1, len(calls)
        assert not g_steps

    def test_bnb_matches_exhaustive_on_large_ties(self, dup_model):
        # The bound cuts rows among runs of tied ones; the search must
        # still find the oracle's winner on instances whose frontier grows
        # past the cap, where the bound runs.
        rng = np.random.default_rng(92)
        for n in range(30):
            ctx = random_context(
                rng, dup_model, int(rng.integers(9, 13)), loose=n % 2 == 0, ties=True
            )
            got = bnb_search(ctx, dup_model)
            want = exhaustive_oracle(ctx, dup_model)
            assert (got.seq, got.mse) == (want.seq, want.mse), n

    @pytest.mark.parametrize("seed", [89, 90, 91])
    def test_bnb_matches_exhaustive_on_ties(self, seed, dup_model):
        # Many subsets of this model tie within MSE_TIE_RTOL, and ties do
        # not chain.  The sweep ranks with the stacked kernels and the last
        # follower's pair, the oracle, which enumerates by size, by the trace
        # of each 2-D chain; the ranks agree to rounding, far inside the tie
        # tolerance, and both pick with _winner, so they must pick the same
        # sequence; both report it with sequence_mse's arithmetic, so the
        # MSEs are equal bit for bit.
        rng = np.random.default_rng(seed)
        for n in range(400):
            ctx = random_context(
                rng, dup_model, int(rng.integers(1, 9)), loose=n % 2 == 0, ties=True
            )
            got = bnb_search(ctx, dup_model)
            want = exhaustive_oracle(ctx, dup_model)
            assert (got.seq, got.mse) == (want.seq, want.mse), n

    def test_a_split_frontier_keeps_the_oracle_winner(self, dup_model, monkeypatch):
        # Past _ROW_LIMIT rows the frontier is split and its halves swept in
        # turn, sharing the incumbent and the recorded ranks, so the answer
        # is the oracle's on tie-heavy instances.  The limits are lowered
        # so that small instances split.
        monkeypatch.setattr(scheduler, "_FRONTIER_CAP", 2)
        monkeypatch.setattr(scheduler, "_ROW_LIMIT", 4)
        kept = []
        bound = scheduler._bound

        def spy(*a):
            keep, m = bound(*a)
            kept.append(int(keep.sum()))
            return keep, m

        monkeypatch.setattr(scheduler, "_bound", spy)
        rng = np.random.default_rng(93)
        split = 0
        for n in range(60):
            ctx = random_context(
                rng, dup_model, int(rng.integers(6, 11)), loose=n % 2 == 0, ties=True
            )
            kept.clear()
            got = bnb_search(ctx, dup_model)
            want = exhaustive_oracle(ctx, dup_model)
            assert (got.seq, got.mse) == (want.seq, want.mse), n
            split += max(kept, default=0) > 4
        assert split > 20, split

    def test_a_frontier_past_the_row_limit_keeps_the_oracle_winner(self, dup_model, monkeypatch):
        # Observers 0, 3, ..., 15 of dup_model have noise variance 1e12.
        # With a prior of 1e-3 I, all subsets of 14 of their candidates on
        # a 4-point grid of timestamps tie within 1e-14, so no bound cuts
        # a row and the frontier doubles at every follower.  Before the
        # last follower it holds 2^13 rows, past the hard row limit, where
        # no bound runs (one follower is left): the split alone keeps
        # every stacked update within the limit, although the last
        # follower spawns 2^13 rows.
        kept, sizes = [], []
        bound, update_rows = scheduler._bound, scheduler._update_rows

        def spy(*a):
            keep, m = bound(*a)
            kept.append(int(keep.sum()))
            return keep, m

        monkeypatch.setattr(scheduler, "_bound", spy)
        monkeypatch.setattr(
            scheduler, "_update_rows", lambda rows, *a: sizes.append(len(rows)) or update_rows(rows, *a)
        )
        rng = np.random.default_rng(94)
        ts = np.sort(rng.integers(0, 4, size=14)) * 0.0015
        cands = tuple(
            Candidate(float(t), float(rng.uniform(2e-5, 5e-5)), 3 * int(rng.integers(0, 6)))
            for t in ts
        )
        ctx = CycleContext(cands, (), T3, 1, None, 1e-3 * np.eye(3))
        got = bnb_search(ctx, dup_model)
        assert max(kept) == scheduler._ROW_LIMIT == max(sizes)
        assert sizes[-2:] == [scheduler._ROW_LIMIT] * 2  # the last follower, once per half
        want = exhaustive_oracle(ctx, dup_model)
        assert (got.seq, got.mse) == (want.seq, want.mse)
        assert got.nodes_visited == schedulable_count(ctx) == 2**14 - 1

    def test_bounds_only_with_two_followers_left(self, search_model, dup_model, monkeypatch):
        # With one follower left a row's bound is its own next rank, so
        # bounding costs a step and saves none: _bound never runs then.
        left = []
        bound = scheduler._bound

        def spy(kernel, n, *a):
            left.append(len(kernel.fol) - n)
            return bound(kernel, n, *a)

        monkeypatch.setattr(scheduler, "_bound", spy)
        rng = np.random.default_rng(95)
        for n in range(40):
            model = search_model if n % 2 else dup_model
            ctx = random_context(rng, model, int(rng.integers(8, 13)), loose=n % 4 < 2, ties=n % 3 == 0)
            assert bnb_search(ctx, model).seq == exhaustive_oracle(ctx, model).seq, n
        assert left and min(left) == 2, sorted(set(left))

    @pytest.mark.parametrize("cap", [None, 2])
    def test_tied_rows_decode_to_the_oracle_winner(self, cap, dup_model, monkeypatch):
        # Row ids stay the rows' positions until the first cut, and only
        # the tied rows are decoded.  With the default cap these instances
        # (at most 6 candidates, so at most 64 rows) are never bounded and
        # keep that form; with a cap of 2 the bound cuts rows, and the ids
        # are carried from the first cut on.  Both must decode the
        # oracle's winner.
        if cap is not None:
            monkeypatch.setattr(scheduler, "_FRONTIER_CAP", cap)
        cuts = []
        bound = scheduler._bound

        def spy(kernel, n, rows, *a):
            keep, m = bound(kernel, n, rows, *a)
            cuts.append(len(rows) - int(keep.sum()))
            return keep, m

        monkeypatch.setattr(scheduler, "_bound", spy)
        rng = np.random.default_rng(96)
        for n in range(300):
            L = int(rng.integers(1, 7)) if cap is None else int(rng.integers(4, 10))
            ctx = random_context(rng, dup_model, L, loose=n % 2 == 0, ties=True)
            got = bnb_search(ctx, dup_model)
            want = exhaustive_oracle(ctx, dup_model)
            assert (got.seq, got.mse) == (want.seq, want.mse), n
        if cap is None:
            assert not cuts
        else:
            assert sum(c > 0 for c in cuts) > 100, cuts

    @pytest.mark.parametrize("which", ["search", "dup", "mid"])
    def test_both_report_branches_keep_the_bits_of_a_fresh_score(self, which):
        # A winner that takes the first follower is reported from that
        # follower's row, any other winner from the prior.  Either way the
        # result is _evaluate's from scratch on a model that has computed
        # nothing before, bit for bit, in every field it scores.
        make = {"search": make_search_model, "dup": make_dup_model, "mid": make_mid_model}[which]
        model = make()
        rng = np.random.default_rng(106)
        branches = {True: 0, False: 0}
        for n in range(150):
            if which == "mid":
                ctx = mid_context(rng, model, int(rng.integers(4, 11)))
            else:
                ctx = random_context(rng, model, int(rng.integers(1, 11)),
                                     loose=n % 2 == 0, ties=which == "dup")
            got = bnb_search(ctx, model)
            assert_same_score(got, _evaluate(ctx, make(), got.seq), n)
            branches[takes_first_follower(ctx, got.seq)] += 1
        # mid winners always take the first follower; the other pools mix.
        assert branches[True] > 50, branches
        assert which == "mid" or branches[False] > 5, branches

    @pytest.mark.parametrize("preset, takes", [("blackout-6of6-100000", False), ("rate-fast", True)])
    def test_preset_winners_keep_the_bits_of_a_fresh_score(self, preset, takes):
        # Every blackout-6of6-100000 winner skips the first follower, and
        # every rate-fast winner takes it: one report branch each.
        cfg = parse_config_dict(preset_config(preset))
        fresh = parse_config_dict(preset_config(preset)).model
        for ctx, got in decision_cycles(cfg.model, cfg.channel, "bnb", cfg.initial_cov(), 100):
            assert_same_score(got, _evaluate(ctx, fresh, got.seq), ctx.cycle_index)
            assert takes_first_follower(ctx, got.seq) is takes, ctx.cycle_index

    def test_reports_the_winner_through_sequence_mse(self, dup_model):
        # The search ranks by <M, P> + c but reports the winner's MSE and
        # running covariance as sequence_mse scores them, bit for bit.
        rng = np.random.default_rng(89)
        for n in range(400):
            ctx = random_context(
                rng, dup_model, int(rng.integers(1, 9)), loose=n % 2 == 0, ties=True
            )
            got = bnb_search(ctx, dup_model)
            cands = [ctx.candidates[i] for i in got.seq]
            mse, cov = sequence_mse(dup_model, ctx.prior_cov, ctx.t0, cands, ctx.cycle_end)
            assert got.mse == mse, n
            assert got.running_cov.tobytes() == cov.tobytes(), n

    def test_a_search_whose_bounds_are_all_nan_raises_numeric_error(self, search_model):
        # A prior of 1e150 I overflows the stacked chains of a loose L = 10
        # instance, so every bound is NaN and cuts its row: no row reaches
        # the last follower, and the search reports a numeric breakdown
        # rather than a bare numpy error.
        for seed in range(3):
            ctx = random_context(np.random.default_rng(seed), search_model, 10, loose=True)
            with np.errstate(all="ignore"), pytest.raises(NumericError, match="bounds are not finite"):
                bnb_search(replace(ctx, prior_cov=1e150 * np.eye(3)), search_model)


class TestRankKernel:
    """The one place where the search ranks a covariance."""

    @pytest.mark.parametrize("which", ["search", "dup"])
    def test_ranks_are_the_predicted_boundary_mse(self, which):
        # Along a g_step chain from the anchor, each covariance held at a
        # root follower and carried to the last follower by the kernel's
        # steps ranks as the trace of that covariance predicted to kT, to
        # rounding, and the prior's empty_rank as the prior's; the chain
        # ends on sequence_mse's running covariance, bit for bit, also when
        # it crossed a far step.
        model = make_search_model() if which == "search" else make_dup_model()
        rng = np.random.default_rng(97)
        far_chains = carried_rows = 0
        for n in range(60):
            L = int(rng.integers(1, 11))
            ctx = random_context(rng, model, L, loose=n % 2 == 0, ties=which == "dup")
            if not scheduler._followers(ctx):
                continue
            kernel = RankKernel(ctx, model)
            fol, kT = kernel.fol, ctx.cycle_end
            want = float(np.trace(predict_cov(model, ctx.prior_cov, ctx.t0, kT)))
            assert kernel.empty_rank == pytest.approx(want, rel=1e-12, abs=0), n
            size = int(rng.integers(0, len(fol) + 1))
            seq = tuple(sorted(rng.choice(fol, size=size, replace=False).tolist()))
            covs = chain(ctx, model, seq)
            for cov, j in zip(covs, seq):
                row = carried(kernel, fol.index(j), cov)
                want = float(np.trace(predict_cov(model, cov, ctx.timestamps[j], kT)))
                assert kernel.rank_rows(row)[0] == pytest.approx(want, rel=1e-12, abs=0), (n, j)
                carried_rows += ctx.timestamps[j] < ctx.timestamps[fol[-1]]
            cands = [ctx.candidates[j] for j in seq]
            _, cov = sequence_mse(model, ctx.prior_cov, ctx.t0, cands, kT)
            assert (covs[-1] if seq else ctx.prior_cov).tobytes() == cov.tobytes(), n
            far_chains += far_steps(ctx, seq) > 0
        assert far_chains > 0 and carried_rows > 20, (far_chains, carried_rows)

    @pytest.mark.parametrize("which", ["search", "dup"])
    def test_an_opened_instance_ranks_from_its_table(self, which, monkeypatch):
        # The constructor builds every step and both boundary pairs, the
        # anchor's and the last follower's; the steps are those of the
        # model's discretization of each gap between followers, bit for
        # bit.  Ranking then only reads the table: one row at a time or
        # stacked, each row carried to the last follower ranks as the
        # trace of predict_cov to kT, to rounding.
        model = make_search_model() if which == "search" else make_dup_model()
        calls = []
        methods = {
            name: f for name, f in vars(SystemModel).items()
            if callable(f) and name not in ("__init__", "__post_init__")
        }
        rng = np.random.default_rng(101)
        carried_rows = 0
        for n in range(60):
            ctx = random_context(rng, model, int(rng.integers(1, 11)),
                                 loose=n % 2 == 0, ties=which == "dup")
            if not scheduler._followers(ctx):
                continue
            kernel = RankKernel(ctx, model)
            fol, ts = kernel.fol, ctx.timestamps
            for k, (i, j) in enumerate(zip(fol, fol[1:]), 1):
                want = kalman._stacked_predictor(*model.discretize(ts[j] - ts[i]))
                got = kernel.stacked[k]
                assert (got is None) == (ts[j] == ts[i]), (n, k)
                if got is not None:
                    assert got[0].tobytes() == want[0].tobytes(), (n, k)
                    assert got[1].tobytes() == want[1].tobytes(), (n, k)
            rows = np.concatenate(
                [carried(kernel, k, cov) for k, cov in enumerate(chain(ctx, model, fol))]
            )
            with monkeypatch.context() as spy:
                for name, f in methods.items():
                    spy.setattr(SystemModel, name,
                                lambda *a, _n=name, _f=f, **kw: calls.append(_n) or _f(*a, **kw))
                stacked = kernel.rank_rows(rows)
                alone = [kernel.rank_rows(row[None])[0] for row in rows]
            assert not calls, (n, calls)
            carried_rows += sum(ts[j] != ts[fol[-1]] for j in fol)
            for j, cov, got, row in zip(fol, chain(ctx, model, fol), stacked, alone):
                want = float(np.trace(predict_cov(model, cov, ts[j], ctx.cycle_end)))
                assert got == pytest.approx(want, rel=1e-12, abs=0), (n, j)
                assert row == pytest.approx(want, rel=1e-12, abs=0), (n, j)
        assert carried_rows > 0

    @pytest.mark.parametrize("L", [8, 12])
    def test_cold_loose_instance_pays_L_plus_2_exponentials(self, L, monkeypatch):
        # anchor -> 0, the L - 1 adjacent steps, the last candidate's
        # boundary pair and the anchor's length T; every other pair is
        # composed, and the winner takes every candidate, so its chain has
        # no far step.  Paying one exponential per length took 25 and 37
        # here.
        misses = []
        kernel = dynamics._discretize
        monkeypatch.setattr(dynamics, "_discretize", lambda *a: misses.append(1) or kernel(*a))
        rng = np.random.default_rng(86)
        for _ in range(3):
            model = make_search_model()
            ctx = random_context(rng, model, L, loose=True)
            misses.clear()
            got = bnb_search(ctx, model)
            assert got.seq == tuple(range(L))
            assert len(misses) <= L + 2, len(misses)

    @pytest.mark.parametrize("source", ["rate-fast", "rate-slow", "loose", "mid"])
    def test_a_cold_search_discretizes_the_instance_lengths(self, source, monkeypatch):
        # A cold bnb_search pays one exponential for each of these lengths
        # and for no other: anchor -> first follower, each nonzero step
        # between adjacent followers, last follower -> kT and the anchor's
        # kT - t0, plus, as in sequence_mse, each length of the winner's
        # reported chain that none of these is.  Where a length is paid
        # decides which decision of a run pays it; dropping the anchor's
        # pair, for one, moves its exponential into a later harvest_none.
        lengths = []
        kernel = dynamics._discretize
        monkeypatch.setattr(dynamics, "_discretize", lambda b, dt: lengths.append(dt) or kernel(b, dt))
        if source.startswith("rate"):
            def make():
                return parse_config_dict(preset_config(source)).model

            cfg = parse_config_dict(preset_config(source))
            pool = [ctx for ctx, _ in
                    decision_cycles(cfg.model, cfg.channel, "bnb", cfg.initial_cov(), 200)]
        else:
            make = make_search_model if source == "loose" else make_mid_model
            rng = np.random.default_rng(108)
            pool = [random_context(rng, make(), int(rng.integers(1, 11)), loose=True)
                    if source == "loose" else mid_context(rng, make(), int(rng.integers(4, 11)))
                    for _ in range(40)]
        searched = 0
        for n, ctx in enumerate(pool):
            fol = scheduler._followers(ctx)
            if not fol:
                continue
            searched += 1
            ts, t0, kT = ctx.timestamps, ctx.t0, ctx.cycle_end
            lengths.clear()
            got = bnb_search(ctx, make())
            want = {ts[fol[0]] - t0, kT - ts[fol[-1]], kT - t0}
            want.update(ts[j] - ts[i] for i, j in zip(fol, fol[1:]))
            # the reported chain, from the first follower's row or the prior
            t, rest = (ts[fol[0]], got.seq[1:]) if takes_first_follower(ctx, got.seq) else (t0, got.seq)
            held = [t, *(ts[i] for i in rest), kT]
            want.update(b - a for a, b in zip(held, held[1:]))
            want.discard(0.0)
            assert sorted(lengths) == sorted(want), (n, lengths, want)
        assert searched >= 30, searched

    def test_winners_have_sequence_mse_bits_on_a_fresh_model(self):
        # On one model shared by many instances, as in a run, every
        # winner's mse and running covariance are sequence_mse's on a model
        # that has computed nothing before, bit for bit, also when the
        # winner's chain crosses a far step; the oracle agrees.
        model = make_mid_model()
        rng = np.random.default_rng(102)
        far_winners = 0
        for n in range(60):
            ctx = mid_context(rng, model, int(rng.integers(4, 11)))
            got = bnb_search(ctx, model)
            cands = [ctx.candidates[i] for i in got.seq]
            mse, cov = sequence_mse(make_mid_model(), ctx.prior_cov, ctx.t0, cands, ctx.cycle_end)
            assert got.mse == mse and got.running_cov.tobytes() == cov.tobytes(), n
            assert (got.seq, got.mse) == (exhaustive_oracle(ctx, model).seq, mse), n
            far_winners += far_steps(ctx, got.seq) > 0
        assert far_winners > 10, far_winners

    def test_pairs_do_not_depend_on_what_the_model_computed(self):
        # An instance opens with the same steps and boundary pairs, byte
        # for byte, on a fresh model and on one that has just searched it:
        # the search's winner chain and boundary prediction leave lengths
        # in the cache, and nothing the kernel holds may read them.
        model = make_mid_model()
        rng = np.random.default_rng(103)
        for n in range(60):
            ctx = mid_context(rng, model, int(rng.integers(4, 17)))
            fresh = RankKernel(ctx, make_mid_model())
            bnb_search(ctx, model)
            again = RankKernel(ctx, model)
            assert fresh.empty_rank == again.empty_rank, n
            for a, b in zip((fresh._pair, *fresh.stacked), (again._pair, *again.stacked)):
                assert (a is None) == (b is None), n
                if a is not None:
                    assert a[0].tobytes() == b[0].tobytes(), n
                    assert np.asarray(a[1]).tobytes() == np.asarray(b[1]).tobytes(), n
            assert len(fresh.stacked) == len(again.stacked) == len(fresh.fol), n

    def test_greedy_does_not_depend_on_what_the_model_computed(self):
        # The oracle chains every schedulable subset, far steps included;
        # greedy_search after it on the same model returns what it returns
        # on a fresh model, bit for bit.
        model = make_mid_model()
        rng = np.random.default_rng(104)
        for n in range(60):
            ctx = mid_context(rng, model, int(rng.integers(4, 11)))
            exhaustive_oracle(ctx, model)
            got, want = greedy_search(ctx, model), greedy_search(ctx, make_mid_model())
            assert (got.seq, got.mse) == (want.seq, want.mse), n
            assert got.running_cov.tobytes() == want.running_cov.tobytes(), n
            assert got.boundary_cov.tobytes() == want.boundary_cov.tobytes(), n

    def test_oracle_scores_only_its_winner(self, search_model, monkeypatch):
        # The oracle chains each schedulable subset, the empty one
        # included, once with kalman's chain and ranks it by its boundary
        # covariance's trace; it builds one ScheduleEvaluation, through
        # _score, for its winner, which chains once more.
        chains, scores = [], []
        boundary, score = scheduler._sequence_boundary, scheduler._score
        monkeypatch.setattr(
            scheduler, "_sequence_boundary", lambda *a: chains.append(1) or boundary(*a)
        )
        monkeypatch.setattr(
            scheduler, "_score", lambda *a, **kw: scores.append(1) or score(*a, **kw)
        )
        rng = np.random.default_rng(98)
        for n in range(20):
            ctx = random_context(rng, search_model, int(rng.integers(1, 9)), loose=n % 2 == 0)
            chains.clear()
            scores.clear()
            exhaustive_oracle(ctx, search_model)
            assert len(scores) == 1, n
            assert len(chains) == schedulable_count(ctx) + 2, n


class TestStats:
    def test_empty_logs_raise(self):
        from ospkit import selection_stats

        with pytest.raises(DomainError):
            selection_stats([])
