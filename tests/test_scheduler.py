"""Scheduler tests: harvest recursion against a closed-form oracle,
schedulability edge cases, branch-and-bound vs exhaustive enumeration,
greedy baseline behavior, an order-independent tie rule, and the soundness
of both pruning rules."""
from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from ospkit import (
    Candidate,
    CycleContext,
    DomainError,
    bnb_search,
    end_of_harvest,
    exhaustive_oracle,
    greedy_search,
    harvesting_budget,
    is_schedulable,
    order_observations,
    predict_cov,
    sequence_mse,
)
from ospkit import scheduler
from ospkit.scheduler import (
    MSE_TIE_RTOL, RankKernel, _finish, _winner, harvest_all, harvest_none,
)

from conftest import T3, harvest_closed_form, make_model, random_context


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
        rng = np.random.default_rng(69)
        for _ in range(20):
            L = int(rng.integers(1, 9))
            ctx = random_context(rng, search_model, L=L)
            b = bnb_search(ctx, search_model)
            assert 1 <= b.nodes_visited <= 2**L - 1
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
        # When the winner is every candidate, each node's first child heads
        # the bound chain and its second child's bound cuts it and all its
        # later siblings: one chain of L steps, then one chain per depth.
        # Bounding every later sibling took 92 and 298 steps here.
        calls = []
        g_step = scheduler.g_step
        monkeypatch.setattr(
            scheduler, "g_step", lambda *a: calls.append(1) or g_step(*a)
        )
        rng = np.random.default_rng(86)
        for _ in range(3):
            ctx = random_context(rng, search_model, L, loose=True)
            calls.clear()
            assert bnb_search(ctx, search_model).seq == tuple(range(L))
            assert len(calls) <= L * (L + 1) // 2 + 1, len(calls)

    def test_bnb_matches_exhaustive_on_large_ties(self, dup_model):
        # The sibling cut skips whole runs of tied siblings; the search must
        # still find the oracle's winner on instances deep enough to cut.
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
        # not chain.  The depth-first search and the oracle, which
        # enumerates by size, rank through one RankKernel and pick with
        # _winner, so they must pick the same sequence; both report it with
        # sequence_mse's arithmetic, so the MSEs are equal bit for bit.
        rng = np.random.default_rng(seed)
        for n in range(400):
            ctx = random_context(
                rng, dup_model, int(rng.integers(1, 9)), loose=n % 2 == 0, ties=True
            )
            got = bnb_search(ctx, dup_model)
            want = exhaustive_oracle(ctx, dup_model)
            assert (got.seq, got.mse) == (want.seq, want.mse), n

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


class TestRankKernel:
    """The one place where the search and the oracle step and rank a
    covariance."""

    @pytest.mark.parametrize("which", ["search", "dup"])
    def test_ranks_are_the_predicted_boundary_mse(self, which, search_model, dup_model):
        # Along a chain from the anchor, each rank <M_j, P> + c_j is the
        # trace of P predicted to kT, to rounding, the anchor's included;
        # the chain ends on sequence_mse's running covariance, bit for bit.
        model = search_model if which == "search" else dup_model
        rng = np.random.default_rng(97)
        for n in range(60):
            L = int(rng.integers(1, 11))
            ctx = random_context(rng, model, L, loose=n % 2 == 0, ties=which == "dup")
            size = int(rng.integers(0, L + 1))
            seq = tuple(sorted(rng.choice(L, size=size, replace=False).tolist()))
            kernel = RankKernel(ctx, model)
            covs = [ctx.prior_cov, *kernel.chain(ctx.prior_cov, kernel.anchor, seq)]
            held = [(kernel.anchor, ctx.t0)] + [(j, ctx.candidates[j].timestamp) for j in seq]
            for cov, (j, t) in zip(covs, held):
                want = float(np.trace(predict_cov(model, cov, t, ctx.cycle_end)))
                assert kernel.rank(cov, j) == pytest.approx(want, rel=1e-12, abs=0), (n, j)
            cands = [ctx.candidates[j] for j in seq]
            _, cov = sequence_mse(model, ctx.prior_cov, ctx.t0, cands, ctx.cycle_end)
            assert covs[-1].tobytes() == cov.tobytes(), n

    def test_oracle_scores_only_its_winner(self, search_model, monkeypatch):
        # The oracle chains and ranks every schedulable subset through the
        # kernel; it reaches sequence_mse once, through _evaluate, to score
        # the winner the way every policy's answer is scored.
        calls = []
        score = scheduler.sequence_mse
        monkeypatch.setattr(
            scheduler, "sequence_mse", lambda *a: calls.append(1) or score(*a)
        )
        rng = np.random.default_rng(98)
        for n in range(20):
            ctx = random_context(rng, search_model, int(rng.integers(1, 9)), loose=n % 2 == 0)
            calls.clear()
            exhaustive_oracle(ctx, search_model)
            assert len(calls) == 1, n


class TestStats:
    def test_empty_logs_raise(self):
        from ospkit import selection_stats

        with pytest.raises(DomainError):
            selection_stats([])
