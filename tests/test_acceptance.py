"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS line with the measured figure when its assertions hold.

1. Search optimality against exhaustive enumeration at scale and speed.
2. Unconstrained cycles select every available observation.
3. Blacked-out (high-noise) observers are excluded from the schedule.
4. Faster sampling yields better predicted and realized estimates.
5. Optimal search dominates the greedy baseline per cycle; the shipped
   comparison scenarios show a strict win and a benign tie respectively.
6. Discretization numerics: quadrature agreement and exponential identities.
7. Harvest recursion vs closed form; pruning soundness; early-blocker
   node-count saving.
8. First-observation timetable vs direct grid enumeration.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ospkit import (
    Candidate,
    CycleContext,
    bnb_search,
    end_of_harvest,
    exhaustive_oracle,
    first_obs_timestamp,
    greedy_search,
    run_simulation,
    selection_stats,
)
from ospkit.config import parse_config_dict, preset_config

from conftest import (
    A3,
    Q3,
    first_obs_grid_oracle,
    harvest_closed_form,
    plant,
    random_context,
    random_stable_system,
)


def run_preset(name, policy=None, cycles=None, seed=None):
    cfg = parse_config_dict(preset_config(name))
    channel = cfg.channel if seed is None else dataclasses.replace(cfg.channel, seed=seed)
    return run_simulation(
        cfg.model,
        channel,
        policy or cfg.policy,
        cycles or cfg.cycles,
        initial_cov=cfg.initial_cov(),
    )


def test_criterion_1_oracle_equivalence(search_model):
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for i in range(200):
        ctx = random_context(rng, search_model, L=int(rng.integers(1, 11)))
        got = bnb_search(ctx, search_model)
        want = exhaustive_oracle(ctx, search_model)
        assert got.seq == want.seq, f"instance {i}: {got.seq} != {want.seq}"
        assert got.mse == pytest.approx(want.mse, rel=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"\nPASS criterion 1: 200/200 instances match the exhaustive oracle "
          f"(seq identical, MSE rel <= 1e-9) in {elapsed:.1f} s")


def test_criterion_2_unconstrained_selects_all():
    logs = run_preset("unconstrained", cycles=100)
    full = sum(1 for log in logs if len(log.seq) == len(log.candidates))
    assert full == 100, f"only {full}/100 cycles selected every candidate"
    print(f"\nPASS criterion 2: all candidates selected in {full}/100 "
          f"unconstrained cycles")


@pytest.mark.parametrize("bits", ["100000", "001000", "000010"])
def test_criterion_3_noisy_observer_excluded(bits):
    logs = run_preset(f"blackout-6of6-{bits}", cycles=100)
    noisy = bits.index("1")
    frac = selection_stats(logs)[noisy]
    # Sanity: the budget really is binding (roughly 4 of 6 fit per cycle).
    mean_picked = np.mean([len(log.seq) for log in logs])
    assert 3.0 <= mean_picked <= 5.0
    assert frac <= 0.05, f"bitstring {bits}: noisy observer picked {frac:.0%}"
    print(f"\nPASS criterion 3 [{bits}]: blacked-out observer selected in "
          f"{frac:.0%} of 100 cycles (<= 5%)")


def test_criterion_4_rate_vs_quality():
    fast = run_preset("rate-fast", cycles=250, seed=0)
    slow = run_preset("rate-slow", cycles=250, seed=0)
    mse_fast = np.mean([log.mse_pred for log in fast])
    mse_slow = np.mean([log.mse_pred for log in slow])
    err_fast = np.mean([log.sq_err for log in fast])
    err_slow = np.mean([log.sq_err for log in slow])
    assert mse_fast < 0.9 * mse_slow, (mse_fast, mse_slow)
    assert err_fast < 0.9 * err_slow, (err_fast, err_slow)
    print(f"\nPASS criterion 4: fast/slow predicted MSE ratio "
          f"{mse_fast / mse_slow:.2f}, realized {err_fast / err_slow:.2f} "
          f"(both < 0.9)")


def test_criterion_5_optimal_vs_greedy():
    # Per-cycle dominance over every seed tested, on both a constrained and
    # a constructed scenario.
    checked = 0
    for preset in ("blackout-6of6-100000", "baseline-compare-diff"):
        for seed in (0, 1, 2):
            b = run_preset(preset, policy="bnb", cycles=50, seed=seed)
            g = run_preset(preset, policy="greedy", cycles=50, seed=seed)
            for lb, lg in zip(b, g):
                assert lb.mse_pred <= lg.mse_pred * (1 + 1e-12), (preset, seed, lb.cycle)
                checked += 1
    # Constructed scenario: a cycle where optimal beats greedy by > 1%.
    b = run_preset("baseline-compare-diff", policy="bnb", cycles=50)
    g = run_preset("baseline-compare-diff", policy="greedy", cycles=50)
    gains = [(lg.mse_pred - lb.mse_pred) / lg.mse_pred for lb, lg in zip(b, g)]
    assert max(gains) > 0.01, f"max relative gain {max(gains):.2%}"
    # Benign scenario: bit-for-bit agreement on every cycle.
    b = run_preset("baseline-compare-same", policy="bnb", cycles=50)
    g = run_preset("baseline-compare-same", policy="greedy", cycles=50)
    for lb, lg in zip(b, g):
        assert lb.seq == lg.seq
        assert lb.mse_pred == pytest.approx(lg.mse_pred, rel=1e-12)
    print(f"\nPASS criterion 5: bnb <= greedy on {checked}/{checked} cycles; "
          f"constructed scenario max gain {max(gains):.0%} (> 1%); benign "
          f"scenario agrees on 50/50 cycles")


def test_criterion_6_numerics():
    # The operator the program runs: SystemModel.discretize, one Van Loan
    # exponential by interval length, on one-observer models of each plant.
    # Integrated noise covariance vs adaptive quadrature on the reference
    # stiff plant.
    def integrand(u):
        E = scipy.linalg.expm(A3 * u)
        return E @ Q3 @ E.T

    want, _ = scipy.integrate.quad_vec(integrand, 0.0, 0.01, epsabs=1e-14, epsrel=1e-13)
    got = plant(A3, Q3).discretize(0.01)[1]
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-8, f"quadrature disagreement {rel:.2e}"

    # Transition semigroup and noise-composition identities on 1000
    # randomized stable systems of dimension <= 6, over the lengths of
    # [s, u], [u, t] and [s, t].
    rng = np.random.default_rng(106)
    worst_phi, worst_q = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A, Q = random_stable_system(rng, n)
        s, u, t = np.sort(rng.uniform(0.0, 1.0, size=3))
        model = plant(A, Q)
        F_su, Q_su = model.discretize(u - s)
        F_ut, Q_ut = model.discretize(t - u)
        F_st, Q_st = model.discretize(t - s)
        dphi = np.linalg.norm(F_st - F_ut @ F_su) / max(np.linalg.norm(F_st), 1e-300)
        rhs = F_ut @ Q_su @ F_ut.T + Q_ut
        dq = np.linalg.norm(Q_st - rhs) / max(np.linalg.norm(Q_st), 1e-300)
        worst_phi = max(worst_phi, dphi)
        worst_q = max(worst_q, dq)
    assert worst_phi <= 1e-9, f"worst semigroup residual {worst_phi:.2e}"
    assert worst_q <= 1e-9, f"worst composition residual {worst_q:.2e}"
    print(f"\nPASS criterion 6: quadrature rel {rel:.1e} (<= 1e-8); worst "
          f"semigroup residual {worst_phi:.1e}, worst composition residual "
          f"{worst_q:.1e} over 1000 systems (<= 1e-9)")


def test_criterion_7_constraint_machinery(search_model):
    rng = np.random.default_rng(107)
    for _ in range(10000):
        ctx = random_context(rng, search_model, L=int(rng.integers(1, 11)))
        L = ctx.L
        size = int(rng.integers(0, L + 1))
        seq = tuple(sorted(rng.choice(L, size=size, replace=False).tolist()))
        got = end_of_harvest(seq, ctx)
        want = harvest_closed_form(seq, ctx)
        assert got == pytest.approx(want, rel=1e-15, abs=5e-18)
        # Pruning soundness: appending any later candidate pushes the drain
        # strictly later.
        later = [j for j in range(L) if not seq or j > seq[-1]]
        if later:
            j = int(rng.choice(later))
            assert end_of_harvest(seq + (j,), ctx) > got

    # Early-blocker instance: the first two candidates can never fit, so
    # feasibility pruning skips both subtrees rooted at them.
    L = 8
    airtimes = [0.02, 0.02] + [1e-4] * (L - 2)
    ctx = CycleContext(
        candidates=tuple(
            Candidate(timestamp=0.0, airtime=a, observer=i) for i, a in enumerate(airtimes)
        ),
        action_airtimes=(),
        T=0.01,
        cycle_index=1,
        t0=0.0,
        prior_cov=np.eye(3),
    )
    got = bnb_search(ctx, search_model)
    want = exhaustive_oracle(ctx, search_model)
    assert got.seq == want.seq
    assert got.mse == pytest.approx(want.mse, rel=1e-9)
    assert got.nodes_visited < 2 ** (L - 1), got.nodes_visited
    print(f"\nPASS criterion 7: harvest recursion matches closed form on "
          f"10000/10000 instances (rel <= 1e-15), extension strictly "
          f"increases the drain, early-blocker search visited "
          f"{got.nodes_visited} < {2 ** (L - 1)} nodes and still matches the "
          f"oracle")


def test_criterion_8_timetable_oracle():
    rng = np.random.default_rng(108)
    absent = 0
    for _ in range(10000):
        T = float(rng.uniform(0.004, 0.02))
        regime = int(rng.integers(0, 3))
        if regime == 0:
            T_n = T * float(rng.uniform(0.05, 0.95))
        elif regime == 1:
            T_n = T
        else:
            T_n = T * float(rng.uniform(1.05, 3.0))
        k = int(rng.integers(1, 60))
        got = first_obs_timestamp(T, T_n, k)
        want = first_obs_grid_oracle(T, T_n, k)
        if want is None:
            assert got is None, (T, T_n, k, got)
            absent += 1
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (T, T_n, k)
    assert absent > 0  # the no-observation regime was actually exercised
    print(f"\nPASS criterion 8: timetable matches grid enumeration on "
          f"10000/10000 random (T, T_n, k) triples, including {absent} "
          f"no-observation cycles")
