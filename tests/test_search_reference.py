"""The search and its update kernel against their loop references.

``reference_bnb_search`` is the depth-first branch-and-bound search as it
was written before the per-instance tables and before the time sweep:
every node computes its finish time from the candidate's absolute
timestamp, looks its boundary pair up in the model, and chains through
``reference_g_step``, the covariance step built on ``np.outer`` and on
the model's C and R matrices.  The sweep visits sequences in another
order and counts rows, not nodes, so the tests require equal sequences
and the same bits in every reported float, and a row count between 1 and
the number of schedulable non-empty sequences.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ospkit import bnb_search, decision_cycles, preset_config, update_estimate
from ospkit.config import PRESET_NAMES, parse_config_dict
from ospkit.kalman import predict_cov
from ospkit.scheduler import MSE_TIE_RTOL, ScheduleEvaluation, _tie_edge, _winner, harvest_none

from conftest import make_mid_model, mid_context, random_context, schedulable_count


def reference_g_step(model, P, t_i, t_j, observer):
    """Predict over [t_i, t_j], then the scalar update with ``np.outer``."""
    prior = predict_cov(model, P, t_i, t_j)
    c = model.C[observer, :]
    Pc = prior @ c
    e = float(c @ Pc + float(model.R[observer, observer]))
    return prior - np.outer(Pc, Pc) / e


def reference_bnb_search(ctx, model):
    """The per-node loop of the search: same visiting order, bound, cuts and
    winner rule as ``bnb_search``, with no table built per instance."""
    if ctx.budget <= 0.0:
        return harvest_none(ctx, model)
    kT = ctx.cycle_end
    cut = 1.0 - 2.0 * MSE_TIE_RTOL

    def finish(d, j):
        c = ctx.candidates[j]
        return max(c.timestamp - (ctx.cycle_index - 1) * ctx.T, d) + c.airtime

    def rank(cov, t):
        M, c = model.boundary_operator(kT - t)
        return float(np.vdot(M, cov)) + c

    nodes = ctx.L
    m = rank(ctx.prior_cov, ctx.t0)
    edge = _tie_edge(m)
    window = [(m, (), ctx.prior_cov, 0.0)]

    def chain_from(cov, t, seq):
        out = []
        for j in seq:
            cj = ctx.candidates[j]
            cov = reference_g_step(model, cov, t, cj.timestamp, cj.observer)
            t = cj.timestamp
            out.append(cov)
        return out

    def bound_of(fol, chain):
        if len(fol) > 1:
            return rank(chain[-1], ctx.candidates[fol[-1]].timestamp)
        return -math.inf

    def expand(seq, d, cov, t, fol, chain, bound):
        nonlocal m, edge, window, nodes
        for n, j in enumerate(fol):
            if bound * cut > edge:
                return
            cj = ctx.candidates[j]
            d_j = finish(d, j)
            rest = fol[n + 1 :]
            nodes += len(rest)
            kids = [i for i in rest if finish(d_j, i) < ctx.budget]
            if n == 0:
                cov_j = chain[0]
            else:
                cov_j = reference_g_step(model, cov, t, cj.timestamp, cj.observer)
            seq_j = seq + (j,)
            rank_j = rank(cov_j, cj.timestamp)
            if rank_j <= edge:
                if rank_j < m:
                    m, edge = rank_j, _tie_edge(rank_j)
                    window = [e for e in window if e[0] <= edge]
                window.append((rank_j, seq_j, cov_j, d_j))
            if not kids:
                continue
            if n == 0 and kids == rest:
                chain_j, bound_j = chain[1:], bound
            else:
                chain_j = chain_from(cov_j, cj.timestamp, kids)
                bound_j = bound_of(kids, chain_j)
            if kids == rest and bound_j * cut > edge:
                return
            expand(seq_j, d_j, cov_j, cj.timestamp, kids, chain_j, bound_j)

    fol = [i for i in range(ctx.L) if finish(0.0, i) < ctx.budget]
    if fol:
        chain = chain_from(ctx.prior_cov, ctx.t0, fol)
        expand((), 0.0, ctx.prior_cov, ctx.t0, fol, chain, bound_of(fol, chain))
    _, seq, cov, d = _winner(window)
    t = ctx.candidates[seq[-1]].timestamp if seq else ctx.t0
    mse = float(np.trace(predict_cov(model, cov, t, kT)))
    return ScheduleEvaluation(seq, d, mse, cov, nodes_visited=nodes)


def assert_same(got, want, ctx, what):
    assert got.seq == want.seq, what
    count = schedulable_count(ctx)
    assert min(1, count) <= got.nodes_visited <= count, what
    assert got.end_of_harvest == want.end_of_harvest, what
    assert got.forced_empty == want.forced_empty, what
    assert np.float64(got.mse).tobytes() == np.float64(want.mse).tobytes(), what
    assert got.running_cov.tobytes() == want.running_cov.tobytes(), what


@pytest.mark.parametrize("loose", [False, True], ids=["tight", "loose"])
def test_matches_reference_on_random_instances(loose, search_model):
    rng = np.random.default_rng(1701 + loose)
    for n in range(150):
        ctx = random_context(rng, search_model, int(rng.integers(1, 13)), loose=loose)
        assert_same(bnb_search(ctx, search_model), reference_bnb_search(ctx, search_model), ctx, n)


def test_matches_reference_on_ties(dup_model):
    rng = np.random.default_rng(1703)
    for n in range(300):
        ctx = random_context(
            rng, dup_model, int(rng.integers(1, 13)), loose=n % 2 == 0, ties=True
        )
        assert_same(bnb_search(ctx, dup_model), reference_bnb_search(ctx, dup_model), ctx, n)


@pytest.mark.parametrize("L", [12, 16])
def test_matches_reference_on_mid_instances(L):
    # Between loose and tight the depth-first bound cuts little and the
    # sweep's frontier grows past its cap, so the rows are bounded and
    # seeded with their greedy completions.
    model = make_mid_model()
    rng = np.random.default_rng(100 + L)
    for n in range(10):
        ctx = mid_context(rng, model, L)
        assert_same(bnb_search(ctx, model), reference_bnb_search(ctx, model), ctx, n)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_matches_reference_on_presets(name):
    cfg = parse_config_dict(preset_config(name))
    cycles = decision_cycles(cfg.model, cfg.channel, "bnb", cfg.initial_cov(), 50)
    for ctx, ev in cycles:
        assert_same(ev, reference_bnb_search(ctx, cfg.model), ctx, ctx.cycle_index)


def test_update_estimate_posterior_is_the_outer_product_form():
    rng = np.random.default_rng(1705)
    for n in range(500):
        S = int(rng.integers(1, 7))
        G = rng.normal(size=(S, S)) * 10.0 ** rng.integers(-6, 4)
        M = G @ G.T
        P = (M + M.T) / 2.0
        c = rng.normal(size=S) * 10.0 ** rng.integers(-3, 3)
        r = float(rng.uniform(1e-6, 10.0))
        Pc = P @ c
        want = P - np.outer(Pc, Pc) / float(c @ Pc + r)
        got = update_estimate(np.zeros(S), P, 0.0, c, r)[1]
        assert got.tobytes() == want.tobytes(), n
