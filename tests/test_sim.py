"""Simulation-layer tests: airtime sampling reproducibility and bounds,
true-state stepping statistics, per-cycle log invariants, shared-world
policy comparisons, the one-walk cycle against its three-pass reference,
the decision-cycle pipeline shared with the oracle command, and selection
statistics."""
from __future__ import annotations

import collections
import dataclasses
import json
import re

import numpy as np
import pytest

from ospkit import (
    ChannelConfig,
    SystemModel,
    ConfigError,
    CycleContext,
    DomainError,
    NumericError,
    cycle_candidates,
    decision_cycles,
    first_obs_timestamp,
    run_simulation,
    sample_airtimes,
    scheduler,
    selection_stats,
    step_true_state,
)
from ospkit import dynamics, kalman, sim
from ospkit.cli import run_cli
from ospkit.config import PRESET_NAMES, parse_config_dict, preset_config
from ospkit.sim import _CHANNEL_TAG, _OBS_NOISE_TAG, _PROCESS_TAG, CycleLog
from conftest import A3, C_MIX, Q3, T3, make_model, plant, scalar_model


def chan(n_obs, lo, hi, *, actions=(), seed=0):
    return ChannelConfig(
        obs_airtime=tuple((lo, hi) for _ in range(n_obs)),
        action_airtime=tuple(actions),
        seed=seed,
    )


class TestSampleAirtimes:
    def test_degenerate_uniform(self):
        cfg = chan(3, 2e-4, 2e-4, actions=((1e-3, 1e-3),))
        obs, act = sample_airtimes(cfg, 5)
        np.testing.assert_array_equal(obs, [2e-4] * 3)
        np.testing.assert_array_equal(act, [1e-3])

    def test_reproducible_per_cycle(self):
        cfg = chan(4, 1e-4, 2e-4, seed=9)
        a1, _ = sample_airtimes(cfg, 3)
        a2, _ = sample_airtimes(cfg, 3)
        np.testing.assert_array_equal(a1, a2)
        b, _ = sample_airtimes(cfg, 4)
        assert not np.array_equal(a1, b)

    def test_one_draw_has_the_bits_of_one_draw_per_entry(self):
        # The observer entries, then the action entries, in that order.
        cfg = chan(5, 1e-4, 3e-4, actions=((0.0, 1e-3), (2e-3, 4e-3)), seed=4)
        for k in (1, 2, 77):
            rng = np.random.default_rng([4, k, _CHANNEL_TAG])
            want = [rng.uniform(lo, hi) for lo, hi in (*cfg.obs_airtime, *cfg.action_airtime)]
            obs, act = sample_airtimes(cfg, k)
            assert np.concatenate([obs, act]).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", [0, 4, 2**32 - 1, 2**32, 2**64 + 3])
    def test_array_entropy_draws_as_the_seed_list(self, seed):
        # The generator is seeded from the seed's, k's and the tag's 32-bit
        # words in one uint32 array.  Seeds and cycle indices of one and of
        # two or three words: a wrong word order or width changes the draws.
        cfg = chan(3, 1e-4, 3e-4, actions=((0.0, 1e-3), (2e-3, 4e-3)), seed=seed)
        for k in (1, 77, 2**32 + 1, np.int64(77)):
            rng = np.random.default_rng([seed, int(k), _CHANNEL_TAG])
            want = [rng.uniform(lo, hi) for lo, hi in (*cfg.obs_airtime, *cfg.action_airtime)]
            obs, act = sample_airtimes(cfg, k)
            assert obs.tobytes() == np.array(want[:3]).tobytes(), k
            assert act.tobytes() == np.array(want[3:]).tobytes(), k

    def test_bounds_and_mean(self):
        cfg = chan(1, 1e-4, 3e-4, seed=1)
        draws = np.array([sample_airtimes(cfg, k)[0][0] for k in range(1, 10001)])
        assert draws.min() >= 1e-4 and draws.max() <= 3e-4
        # Uniform(1e-4, 3e-4): mean 2e-4, sd of the sample mean ~ 5.8e-7.
        assert abs(draws.mean() - 2e-4) < 3e-6

    def test_trace_overrides_sampling(self):
        cfg = ChannelConfig(
            obs_airtime=((1e-4, 2e-4),),
            action_airtime=((1e-3, 2e-3),),
            trace=((1.5e-4, 1.2e-3), (1.8e-4, 1.9e-3)),
        )
        obs, act = sample_airtimes(cfg, 2)
        assert obs[0] == 1.8e-4 and act[0] == 1.9e-3

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "0", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="channel.seed: must be an integer >= 0"):
            ChannelConfig(obs_airtime=((1e-4, 2e-4),), action_airtime=(), seed=seed)
        # dataclasses.replace runs the same check, as the CLI's --seed does.
        with pytest.raises(ConfigError, match="channel.seed"):
            dataclasses.replace(chan(1, 1e-4, 2e-4), seed=seed)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            ChannelConfig(obs_airtime=((2e-4, 1e-4),), action_airtime=())

    @pytest.mark.parametrize(
        "obs, act",
        [((1e-4, np.inf), ()), ((1e-4, 2e-4), ((0.0, np.inf),)), ((np.nan, 2e-4), ())],
        ids=["obs-inf", "action-inf", "obs-nan"],
    )
    def test_rejects_nonfinite_bounds(self, obs, act):
        with pytest.raises(ConfigError, match="< inf"):
            ChannelConfig(obs_airtime=(obs,), action_airtime=act)

    @pytest.mark.parametrize(
        "row",
        [(-1e-4, 1e-3), (np.nan, 1e-3), (0.0, 1e-3), (1e-4, -1e-3), (1e-4, np.nan),
         (1e-4, np.inf)],
        ids=["obs-negative", "obs-nan", "obs-zero", "action-negative", "action-nan",
             "action-inf"],
    )
    def test_rejects_bad_trace_row_at_construction(self, row):
        # The row is named even though the bounds are fine.
        with pytest.raises(ConfigError, match=r"^trace row 2: need 2 finite airtimes"):
            ChannelConfig(
                obs_airtime=((1e-4, 2e-4),),
                action_airtime=((1e-3, 2e-3),),
                trace=((1.5e-4, 1.2e-3), row),
            )

    @pytest.mark.parametrize("trace", [None, ((1.5e-4,), (1.8e-4,))], ids=["random", "trace"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_cycle_below_one(self, trace, k):
        cfg = ChannelConfig(obs_airtime=((1e-4, 2e-4),), action_airtime=(), trace=trace)
        with pytest.raises(DomainError, match="cycle index must be an integer >= 1"):
            sample_airtimes(cfg, k)

    def test_rejects_cycle_past_trace(self):
        # Used to be a bare IndexError.
        cfg = ChannelConfig(obs_airtime=((1e-4, 2e-4),), action_airtime=(), trace=((1.5e-4,),))
        assert sample_airtimes(cfg, 1)[0][0] == 1.5e-4
        with pytest.raises(DomainError, match="^cycle 2 is past the trace's 1 rows$"):
            sample_airtimes(cfg, 2)


class TestStepTrueState:
    def test_noiseless_is_exact_transition(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6, Q=np.zeros((3, 3)))
        rng = np.random.default_rng(0)
        x = np.array([1.0, -1.0, 0.5])
        got = step_true_state(model, x, None, 0.0, 0.004, rng)
        Phi, _ = plant(A3, np.zeros((3, 3))).discretize(0.004)
        np.testing.assert_array_equal(got, Phi @ x)

    def test_integrator_noise_variance(self):
        # a = 0, q = 0.5 over dt = 0.2: increments ~ N(0, 0.1).
        model = scalar_model(a=0.0, q=0.5, T=1.0)
        rng = np.random.default_rng(17)
        incs = np.array(
            [step_true_state(model, np.zeros(1), None, 0.0, 0.2, rng)[0] for _ in range(20000)]
        )
        assert abs(incs.mean()) < 0.01
        assert abs(incs.var() - 0.1) / 0.1 < 0.05

    def test_singular_noise_reaches_only_driven_states(self):
        # Q drives state 2 alone and A is diagonal, so states 0 and 1 stay
        # exactly 0: the factor of the singular Qd must not add noise there.
        model = make_model(
            np.eye(3), np.diag([1e-2] * 3), (T3,) * 3,
            A=np.diag([-1.0, -2.0, -3.0]), Q=np.diag([0.0, 0.0, 0.5]),
        )
        rng = np.random.default_rng(0)
        x = np.zeros(3)
        for i in range(5):
            x = step_true_state(model, x, None, 0.1 * i, 0.1 * (i + 1), rng)
        assert x[0] == 0.0 and x[1] == 0.0 and x[2] != 0.0

    def test_zero_interval(self):
        model = scalar_model(q=0.5)
        rng = np.random.default_rng(0)
        got = step_true_state(model, np.array([2.0]), None, 0.3, 0.3, rng)
        np.testing.assert_array_equal(got, [2.0])

    @pytest.mark.parametrize("Q", [Q3, np.diag([0.0, 0.0, 0.5])], ids=["definite", "singular"])
    def test_noise_factor_is_kept_per_length(self, Q):
        # The singular Q takes the eigendecomposition branch of the factor.
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6, Q=Q)
        for dt in (1e-4, 0.004, 0.05):
            F = model.noise_factor(dt)
            assert model.noise_factor(dt) is F
            fresh = dynamics._noise_factor(model.discretize(dt)[1])
            assert F.tobytes() == fresh.tobytes()

    def test_rate_fast_run_factors_each_length_once(self, monkeypatch):
        # The cached factor gives the draws of a factor computed afresh at
        # every step, and each interval length is factored once.
        def run():
            cfg = parse_config_dict(preset_config("rate-fast"))
            logs = run_simulation(cfg.model, cfg.channel, "bnb", 300)
            return cfg.model, [(g.seq, g.true_state.tobytes(), g.est_state.tobytes()) for g in logs]

        factor = dynamics._noise_factor
        calls = []
        monkeypatch.setattr(dynamics, "_noise_factor", lambda Q: calls.append(1) or factor(Q))
        model, cached = run()
        assert len(calls) <= 1 + len(model._disc_cache)
        monkeypatch.setattr(
            SystemModel, "noise_factor", lambda self, dt: factor(self.discretize(dt)[1])
        )
        assert run()[1] == cached

    @pytest.mark.parametrize("policy", ["none", "all"])
    def test_zero_length_steps_are_not_taken(self, policy, monkeypatch):
        # unconstrained offers its six candidates at the cycle start, where
        # the true state already is, so each cycle steps once, to its end
        # (seven steps a cycle, six of zero length, before).
        cfg = parse_config_dict(preset_config("unconstrained"))
        calls = []
        step = sim.step_true_state
        monkeypatch.setattr(sim, "step_true_state", lambda *a: calls.append(a[3:5]) or step(*a))
        run_simulation(cfg.model, cfg.channel, policy, 10)
        assert len(calls) == 10
        assert all(s < t for s, t in calls)

    def test_rate_fast_run_reads_each_length_once_per_step(self, monkeypatch):
        # A noisy step with an input looks its length up through one
        # discretize call, in propagate_estimate; input_lambda and the noise
        # factor read the same cache entry.  Each looked it up through
        # discretize again before: 3924 calls for 33 lengths.  A
        # zero-length propagation looks nothing up (200 calls and the
        # length 0 before).  Each step of a search reads its operator from
        # the model through discretize, the one home of a length's
        # operator (1532 calls when the search's kernel read held lengths
        # through ``held`` and handed them to g_step).  The next cycle's
        # anchor is the policy's own boundary prediction, not a second one
        # (one call per cycle, 300, before).  The walk fuses each harvested
        # observation with the gain the policy's chain recorded, so it
        # predicts no covariance (1724 calls while it chained its own, one
        # predict_cov per harvest).  Misses still go through discretize, one
        # per length.
        cfg = parse_config_dict(preset_config("rate-fast"))
        calls, misses = [], []
        discretize, kernel = SystemModel.discretize, dynamics._discretize
        monkeypatch.setattr(
            SystemModel, "discretize", lambda self, dt: calls.append(dt) or discretize(self, dt)
        )
        monkeypatch.setattr(dynamics, "_discretize", lambda *a: misses.append(1) or kernel(*a))
        inputs = {j: np.ones(cfg.model.n_agents) for j in range(300)}
        run_simulation(cfg.model, cfg.channel, "bnb", 300, inputs=inputs)
        assert len(calls) == 1524
        assert len(misses) == len(set(calls)) == len(cfg.model._disc_cache) == 32


class TestRunSimulation:
    @pytest.fixture()
    def model(self):
        return make_model(
            C_MIX,
            np.diag([1e-2, 1.0, 1e-2, 1.0, 1e-2, 1.0]),
            (T3,) * 6,
        )

    def test_reproducible(self, model):
        cfg = chan(6, 1e-4, 2e-4, seed=5)
        a = run_simulation(model, cfg, "bnb", 20)
        b = run_simulation(model, cfg, "bnb", 20)
        for la, lb in zip(a, b):
            assert la.seq == lb.seq
            assert la.mse_pred == lb.mse_pred
            np.testing.assert_array_equal(la.true_state, lb.true_state)

    def test_log_invariants(self, model):
        cfg = chan(6, 1e-3, 1.2e-3, actions=((4e-3, 5e-3),), seed=11)
        logs = run_simulation(model, cfg, "bnb", 100)
        assert len(logs) == 100
        for log in logs:
            assert log.cycle >= 1 and log.policy == "bnb"
            assert log.mse_pred > 0.0 and log.sq_err >= 0.0
            assert 0 <= len(log.seq) <= len(log.candidates)
            # The chosen sequence must actually fit the channel.
            if log.seq:
                assert log.end_of_harvest < log.budget
            assert log.end_of_harvest >= 0.0

    def test_none_policy_never_observes(self, model):
        cfg = chan(6, 1e-4, 2e-4, seed=2)
        logs = run_simulation(model, cfg, "none", 700)
        assert all(log.seq == () for log in logs)
        # With no corrections the prediction covariance converges to the
        # fixed point of P -> Phi P Phi^T + Q over one cycle (A is stable).
        import scipy.linalg

        Phi, Qd = model.discretize(model.T)
        P_inf = scipy.linalg.solve_discrete_lyapunov(Phi, Qd)
        assert logs[-1].mse_pred == pytest.approx(float(np.trace(P_inf)), rel=1e-6)

    def test_all_policy_takes_everything_when_cheap(self, model):
        cfg = chan(6, 1e-5, 2e-5, seed=3)
        logs = run_simulation(model, cfg, "all", 10)
        assert all(len(log.seq) == len(log.candidates) for log in logs)

    def test_shared_world_across_policies(self, model):
        # Same seed -> same true trajectory at cycle boundaries regardless
        # of which sequences the executive chooses.
        cfg = chan(6, 1e-3, 1.2e-3, actions=((4e-3, 5e-3),), seed=13)
        t_bnb = [log.true_state for log in run_simulation(model, cfg, "bnb", 30)]
        t_none = [log.true_state for log in run_simulation(model, cfg, "none", 30)]
        for xa, xb in zip(t_bnb, t_none):
            np.testing.assert_array_equal(xa, xb)

    def test_bnb_dominates_greedy_per_cycle(self, model):
        cfg = chan(6, 1e-3, 1.2e-3, actions=((4e-3, 5e-3),), seed=19)
        b = run_simulation(model, cfg, "bnb", 50)
        g = run_simulation(model, cfg, "greedy", 50)
        for lb, lg in zip(b, g):
            assert lb.mse_pred <= lg.mse_pred * (1 + 1e-12)

    def test_read_only_covariances_are_never_written(self, model, monkeypatch):
        # Every cycle's anchor and running covariance is made read-only
        # before the search and the fusion use it, so a write through the
        # zero-length predict's alias would raise.
        decide = scheduler.decide

        def frozen_decide(policy, ctx, model):
            ctx.prior_cov.setflags(write=False)
            ev = decide(policy, ctx, model)
            ev.running_cov.setflags(write=False)
            return ev

        monkeypatch.setattr(scheduler, "decide", frozen_decide)
        P0 = np.diag([1.0, 2.0, 3.0])
        P0.setflags(write=False)
        cfg = chan(6, 1e-3, 1.2e-3, actions=((4e-3, 5e-3),), seed=11)
        for policy in ("bnb", "greedy", "all", "none"):
            logs = run_simulation(model, cfg, policy, 5, initial_cov=P0)
            assert len(logs) == 5 and (policy == "none" or any(log.seq for log in logs))

    def test_explicit_initial_state(self, model):
        cfg = chan(6, 1e-4, 2e-4, seed=23)
        x0 = np.array([0.1, 0.2, 0.3])
        logs = run_simulation(model, cfg, "none", 1, initial_state=x0)
        np.testing.assert_allclose(
            logs[0].true_state.shape, (3,)
        )
        # A column has model.n_states entries once flattened: the same run.
        column = run_simulation(model, cfg, "none", 1, initial_state=x0[:, None])
        assert column[0].true_state.tobytes() == logs[0].true_state.tobytes()

    def test_trace_shorter_than_run_rejected_up_front(self, model):
        cfg = ChannelConfig(
            obs_airtime=((1e-4, 2e-4),) * 6,
            action_airtime=(),
            trace=((1e-4,) * 6,),
        )
        assert len(run_simulation(model, cfg, "bnb", 1)) == 1
        with pytest.raises(ConfigError, match="1 rows, run needs 2"):
            run_simulation(model, cfg, "bnb", 2)

    def test_switching_inputs_integrate_exactly(self):
        # Noiseless integrator x' = b u under an input that switches every
        # cycle: after cycle k both the true state and the estimate (mean
        # 0 at t = 0) have gained b T sum_{j<k} u_j.  The observer's period
        # puts candidates inside cycles, and on their ends (t = 2, 4).
        b, T, x0 = 2.0, 1.0, 3.0
        model = scalar_model(a=0.0, b=b, q=0.0, T=T, period=0.4)
        inputs = {j: [(-1.0) ** j * (0.5 + 0.1 * j)] for j in range(8)}
        logs = run_simulation(
            model, chan(1, 1e-4, 2e-4), "none", 8,
            initial_state=np.array([x0]), inputs=inputs,
        )
        gained = 0.0
        for log in logs:
            gained += b * T * inputs[log.cycle - 1][0]
            assert log.true_state[0] == pytest.approx(x0 + gained, rel=1e-12, abs=1e-12)
            assert log.est_state[0] == pytest.approx(gained, rel=1e-12, abs=1e-12)

    def test_input_at_cycle_end_is_the_cycles_own(self):
        # rate-slow's candidate at 0.53 = 53 T ends cycle 53; stepping to it
        # must use inputs[52], not look up inputs[53] past the run.
        cfg = parse_config_dict(preset_config("rate-slow"))
        air = sample_airtimes(cfg.channel, 53)[0]
        assert any(c.timestamp == 53 * cfg.model.T for c in cycle_candidates(cfg.model, 53, air))
        inputs = {j: [1.0] for j in range(53)}
        logs = run_simulation(cfg.model, cfg.channel, "bnb", 53, inputs=inputs)
        assert len(logs) == 53

    def test_missing_inputs_raise_before_cycle_one(self, model):
        # Every missing cycle index is named, which a failure midway through
        # the run could not do.
        inputs = {j: [0.1] for j in range(12) if j not in (3, 11)}
        with pytest.raises(ConfigError, match=r"inputs lacks 2 of cycles 0\.\.11: 3, 11$"):
            run_simulation(model, chan(6, 1e-4, 2e-4), "bnb", 12, inputs=inputs)

    @pytest.mark.parametrize("bad", [[1.0, 2.0], []])
    def test_wrong_length_input_raises_before_cycle_one(self, model, bad):
        # The first offending cycle is named; [[0.1]] flattens to one entry
        # and is accepted.
        inputs = {j: [[0.1]] for j in range(5)}
        inputs[2], inputs[4] = bad, [1.0, 2.0, 3.0]
        with pytest.raises(
            ConfigError, match=rf"^inputs\[2\] has {len(bad)} entries, model has 1 agents$"
        ):
            run_simulation(model, chan(6, 1e-4, 2e-4), "bnb", 5, inputs=inputs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_before_cycle_one(self, bad):
        # Used to compute cycle 1 and then fail on a NaN squared error.
        cfg = parse_config_dict(preset_config("rate-fast"))
        inputs = {j: [0.1] for j in range(5)}
        inputs[3] = [bad]
        with pytest.raises(ConfigError, match=r"^inputs\[3\] contains non-finite entries$"):
            run_simulation(cfg.model, cfg.channel, "bnb", 5, inputs=inputs)

    @pytest.mark.parametrize(
        "x0, match",
        [([np.nan, 0.0, 0.0], r"got \[nan, 0\.0, 0\.0\]$"),
         ([0.0, np.inf, 0.0], r"got \[0\.0, inf, 0\.0\]$"),
         ([0.1, 0.2], r"^initial_state must be 3 finite numbers, got \[0\.1, 0\.2\]$"),
         (np.zeros(4), r"got \[0\.0, 0\.0, 0\.0, 0\.0\]$")],
        ids=["nan", "inf", "short", "long"],
    )
    def test_bad_initial_state_raises_before_cycle_one(self, x0, match):
        # NaN used to surface as a NumericError on cycle 1's squared error,
        # and a short state as numpy's matmul ValueError midway through.
        cfg = parse_config_dict(preset_config("rate-fast"))
        with pytest.raises(ConfigError, match=match):
            run_simulation(cfg.model, cfg.channel, "bnb", 5, initial_state=x0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_squared_error_raises(self):
        # The predicted MSE stays finite; only the realized error overflows.
        model = scalar_model(a=0.0, q=0.01, T=0.01, period=0.01)
        with pytest.raises(NumericError, match="squared error"):
            run_simulation(
                model, chan(1, 1e-4, 2e-4), "none", 1, initial_state=np.array([1e200])
            )

    def test_filter_calibration(self, model):
        # With every observation fused, the realized squared error should
        # track the filter's predicted MSE within a factor of two.
        cfg = chan(6, 1e-5, 2e-5, seed=29)
        logs = run_simulation(model, cfg, "all", 400)
        tail = logs[50:]
        ratio = np.mean([l.sq_err for l in tail]) / np.mean([l.mse_pred for l in tail])
        assert 0.5 < ratio < 2.0


def reference_run_simulation(model, cfg, policy, K, initial_cov, inputs=None):
    """``run_simulation``'s cycle as three passes, on a checked run: step
    the true state through every timestamp and keep each state, draw the
    chosen observations from the kept states, then fuse them in order."""
    S = model.n_states
    rng_proc = np.random.default_rng([cfg.seed, _PROCESS_TAG])
    rng_obs = np.random.default_rng([cfg.seed, _OBS_NOISE_TAG])
    x_true = np.zeros(S)
    if initial_cov.any():
        x_true = dynamics._noise_factor(initial_cov) @ rng_proc.standard_normal(S)
    xh, t_true, logs = np.zeros(S), 0.0, []
    for ctx, ev in decision_cycles(model, cfg, policy, initial_cov, K):
        u = None if inputs is None else inputs[ctx.cycle_index - 1]
        true_at = []
        for t in ctx.timestamps + (ctx.cycle_end,):
            x_true = step_true_state(model, x_true, u, t_true, t, rng_proc)
            t_true = t
            true_at.append(x_true)
        observed = []
        for i in ev.seq:
            c = ctx.candidates[i]
            noise = np.sqrt(model.obs_var(c.observer)) * rng_obs.standard_normal()
            observed.append((c, float(model.obs_row(c.observer) @ true_at[i]) + noise))
        P, t = ctx.prior_cov, ctx.t0
        for c, y in observed:
            xh = kalman.propagate_estimate(model, xh, u, t, c.timestamp)
            P = kalman.predict_cov(model, P, t, c.timestamp)
            xh, P = kalman.update_estimate(
                xh, P, y, model.obs_row(c.observer), model.obs_var(c.observer)
            )
            t = c.timestamp
        xh = kalman.propagate_estimate(model, xh, u, t, ctx.cycle_end)
        logs.append(CycleLog(
            cycle=ctx.cycle_index, policy=policy, candidates=ctx.candidates, seq=ev.seq,
            end_of_harvest=ev.end_of_harvest, budget=ctx.budget, mse_pred=ev.mse,
            sq_err=float(np.sum((x_true - xh) ** 2)), true_state=x_true.copy(),
            est_state=xh, nodes_visited=ev.nodes_visited, t0=ctx.t0,
            prior_cov=ctx.prior_cov,
        ))
    return logs


def log_bits(log):
    """Every field of a cycle log, floats and arrays as their bytes."""
    return tuple(
        v.tobytes() if isinstance(v, np.ndarray)
        else np.float64(v).tobytes() if isinstance(v, float) else v
        for v in dataclasses.astuple(log)
    )


def assert_gains_are_the_chain(model, ctx, ev):
    """Each of ``ev.gains`` is the ``(Pc, e)`` of ``kalman._update`` along
    ``ev.seq``'s chain from the anchor (``predict_cov``, then the update),
    bit for bit, one per element of ``ev.seq``, and the chain ends at
    ``ev.running_cov``."""
    assert len(ev.gains) == len(ev.seq), ctx.cycle_index
    P, t = ctx.prior_cov, ctx.t0
    for i, (Pc, e) in zip(ev.seq, ev.gains):
        c = ctx.candidates[i]
        prior = kalman.predict_cov(model, P, t, c.timestamp)
        P, want_Pc, want_e = kalman._update(
            prior, model.obs_row(c.observer), model.obs_var(c.observer)
        )
        assert (Pc.tobytes(), e) == (want_Pc.tobytes(), want_e), (ctx.cycle_index, i)
        t = c.timestamp
    assert P.tobytes() == ev.running_cov.tobytes(), ctx.cycle_index


class TestAgainstReference:
    """The one walk per cycle against the three-pass reference: the same
    draws from each generator and the same estimate calls on the same
    arguments, so the logs agree bit for bit."""

    @staticmethod
    def assert_same_run(name, policy, seed, K, inputs=None):
        cfg = parse_config_dict(preset_config(name))
        channel = dataclasses.replace(cfg.channel, seed=seed)
        P0 = cfg.initial_cov()
        got = run_simulation(cfg.model, channel, policy, K, initial_cov=P0, inputs=inputs)
        cfg = parse_config_dict(preset_config(name))
        want = reference_run_simulation(cfg.model, channel, policy, K, P0, inputs)
        assert len(got) == len(want) == K
        for g, w in zip(got, want):
            assert log_bits(g) == log_bits(w), g.cycle

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("policy", ["bnb", "greedy", "all", "none"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name, policy, seed):
        self.assert_same_run(name, policy, seed, 40)

    @pytest.mark.parametrize("policy", ["bnb", "all"])
    def test_rate_slow_with_inputs(self, policy):
        # Cycle 53 ends on a candidate (53 T), so the walk's last timestamp
        # is both a harvested candidate and the cycle end.
        rng = np.random.default_rng(53)
        inputs = {j: rng.normal(size=1) for j in range(60)}
        self.assert_same_run("rate-slow", policy, 0, 60, inputs)


class TestDecisionCycles:
    """The shared cycle pipeline against the simulator that runs on it."""

    PRESETS = ["blackout-6of6-100000", "baseline-compare-diff", "rate-slow"]

    @staticmethod
    def preset(name):
        cfg = parse_config_dict(preset_config(name))
        return cfg.model, cfg.channel, cfg.initial_cov()

    @pytest.mark.parametrize("policy", ["bnb", "greedy", "all", "none"])
    @pytest.mark.parametrize("name", PRESETS)
    def test_anchor_matches_simulation_log(self, name, policy):
        # The anchor is the cycle start, and its covariance is the previous
        # cycle's boundary prediction: the same predict_cov call as that
        # cycle's MSE, so the bits match.
        model, channel, P0 = self.preset(name)
        logs = run_simulation(model, channel, policy, 30, initial_cov=P0)
        cycles = list(decision_cycles(model, channel, policy, P0, 30))
        assert len(cycles) == len(logs) == 30
        prev_mse = None
        for log, (ctx, ev) in zip(logs, cycles):
            assert (ctx.cycle_index, ctx.t0, ev.seq) == (log.cycle, log.t0, log.seq)
            assert np.array_equal(ctx.prior_cov, log.prior_cov)
            assert ctx.t0 == ctx.cycle_start
            if prev_mse is not None:
                assert float(np.trace(ctx.prior_cov)) == prev_mse
            prev_mse = ev.mse

    @pytest.mark.parametrize("policy", ["bnb", "greedy", "all"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_fusion_covariance_is_running_cov(self, name, policy, monkeypatch):
        # The simulator fuses each harvested observation with the gain that
        # the policy's chain recorded, and the next cycle's anchor is that
        # chain's boundary prediction.  So each gain must be, bit for bit,
        # the (Pc, e) of predict_cov then the update along ev.seq from the
        # anchor, that chain's last posterior must be ev.running_cov, and
        # the run must call no covariance kernel beyond its decisions' calls.
        kernels = [(kalman, "predict_cov"), (kalman, "_update"), (kalman, "update_estimate"),
                   (scheduler, "predict_cov"), (scheduler, "_update")]
        calls = collections.Counter()
        for module, fn in kernels:
            spied = getattr(module, fn)
            monkeypatch.setattr(
                module, fn, lambda *a, fn=fn, spied=spied: calls.update((fn,)) or spied(*a)
            )
        model, channel, P0 = self.preset(name)
        cycles = list(decision_cycles(model, channel, policy, P0, 30))
        decided = calls.copy()
        model, channel, P0 = self.preset(name)
        logs = run_simulation(model, channel, policy, 30, initial_cov=P0)
        assert calls == decided + decided and "update_estimate" not in calls, calls
        monkeypatch.undo()
        for log, (ctx, ev) in zip(logs, cycles):
            assert log.seq == ev.seq
            assert_gains_are_the_chain(model, ctx, ev)
        assert any(log.seq for log in logs)

    def test_bnb_gains_from_both_report_branches(self):
        # bnb_search reports a winner that takes the first root follower
        # from that follower's row, and passes that step's gain on; any
        # other winner is chained from the anchor.  Both kinds occur among
        # the presets, and both record the chain's gains.
        branches = collections.Counter()
        for name in PRESET_NAMES:
            model, channel, P0 = self.preset(name)
            for ctx, ev in decision_cycles(model, channel, "bnb", P0, 30):
                assert_gains_are_the_chain(model, ctx, ev)
                if ev.seq:
                    branches[ev.seq[0] == scheduler._followers(ctx)[0]] += 1
        assert branches[True] > 20 and branches[False] > 20, branches

    def test_unknown_policy_raises_before_cycle_one(self):
        model, channel, P0 = self.preset("rate-fast")
        with pytest.raises(ConfigError, match="psychic"):
            next(decision_cycles(model, channel, "psychic", P0, 1))

    def test_decide_names_an_unknown_policy_as_the_pipeline_does(self):
        # decide used to raise a bare KeyError: 'psychic'.
        model, channel, P0 = self.preset("rate-fast")
        ctx, _ = next(decision_cycles(model, channel, "bnb", P0, 1))
        with pytest.raises(ConfigError) as pipeline:
            decision_cycles(model, channel, "psychic", P0, 1)
        with pytest.raises(ConfigError) as decided:
            scheduler.decide("psychic", ctx, model)
        assert str(decided.value) == str(pipeline.value) == (
            "unknown policy 'psychic'; expected one of ('bnb', 'greedy', 'all', 'none')"
        )

    def test_observer_count_mismatch_raises_before_cycle_one(self):
        model, channel, P0 = self.preset("blackout-6of6-100000")
        short = ChannelConfig(channel.obs_airtime[:5], channel.action_airtime)
        with pytest.raises(ConfigError, match="5 observer airtime"):
            next(decision_cycles(model, short, "bnb", P0, 1))

    def test_zero_cycles_raises_before_cycle_one(self):
        model, channel, P0 = self.preset("rate-fast")
        with pytest.raises(ConfigError, match=">= 1, got 0"):
            next(decision_cycles(model, channel, "bnb", P0, 0))
        with pytest.raises(ConfigError, match=">= 1, got 0"):
            run_simulation(model, channel, "bnb", 0)

    @pytest.mark.parametrize("initial_state", [None, np.zeros(3)])
    def test_bad_initial_cov_raises_before_cycle_one(self, initial_state):
        # A negative-definite P0 used to log a negative mse_pred (with an
        # explicit initial state) or fail drawing the initial state from
        # N(0, P0) with a NumericError about the process noise.
        model, channel, _ = self.preset("unconstrained")
        P0 = -5.0 * np.eye(3)
        with pytest.raises(ConfigError, match="initial_cov"):
            run_simulation(
                model, channel, "none", 5, initial_state=initial_state, initial_cov=P0
            )
        with pytest.raises(ConfigError, match="initial_cov"):
            decision_cycles(model, channel, "none", P0, 5)

    @pytest.mark.parametrize(
        "P0, match",
        [(np.eye(2), "3x3"), (np.diag([1.0, np.nan, 1.0]), "non-finite"),
         (np.triu(np.ones((3, 3))), "symmetric")],
    )
    def test_malformed_initial_cov_raises_before_cycle_one(self, P0, match):
        model, channel, _ = self.preset("unconstrained")
        with pytest.raises(ConfigError, match=match):
            decision_cycles(model, channel, "bnb", P0, 5)

    def test_oracle_command_checks_trace_length_first(self, tmp_path, capsys):
        # A 1-observer, 1-agent config whose trace covers 2 of 5 cycles:
        # rejected before any cycle is computed or printed.
        cfg = preset_config("rate-fast")
        cfg["channel"] = {"trace_path": "airtimes.txt"}
        (tmp_path / "airtimes.txt").write_text("1.5e-4,1.5e-4\n1.6e-4,1.2e-4\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["oracle", "--config", str(cfg_path), "--cycles", "5"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "run needs 5" in out.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_mse_raises(self):
        # Unstable scalar plant, pure prediction: the predicted MSE grows by
        # e^8 per cycle and overflows to inf near cycle 89.
        model = scalar_model(a=400.0, q=0.01, T=0.01, period=0.01)
        cycles = decision_cycles(model, chan(1, 1e-4, 2e-4), "none", np.eye(1), 120)
        with pytest.raises(NumericError, match="predicted MSE is inf"):
            for _ in cycles:
                pass

    @pytest.mark.parametrize("entry", ["nan-off-diagonal", "negative-variance"])
    def test_bad_anchor_raises_naming_the_cycle(self, tmp_path, capsys, monkeypatch, entry):
        # A policy whose boundary covariance breaks from cycle 3 on, with a
        # finite trace, so the predicted MSE stays finite: the anchor check
        # stops the run at cycle 3, and `ospkit simulate` exits 2 without
        # writing its CSV.
        name = "blackout-6of6-100000"
        bnb = scheduler.POLICIES["bnb"]

        def broken(ctx, model):
            ev = bnb(ctx, model)
            if ctx.cycle_index < 3:
                return ev
            P = ev.boundary_cov.copy()
            if entry == "nan-off-diagonal":
                P[0, 1] = P[1, 0] = np.nan
            else:
                P[2, 2] = -1e-9
            return dataclasses.replace(ev, boundary_cov=P)

        monkeypatch.setitem(scheduler.POLICIES, "bnb", broken)
        model, channel, P0 = self.preset(name)
        with pytest.raises(NumericError, match="^cycle 3: .*anchor"):
            run_simulation(model, channel, "bnb", 5, initial_cov=P0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config(name)))
        out = tmp_path / "run.csv"
        argv = ["simulate", "--config", str(cfg_path), "--policy", "bnb", "--cycles", "5"]
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "numeric error: cycle 3: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_oracle_command_agrees(self, tmp_path, capsys, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config(name)))
        assert run_cli(["oracle", "--config", str(cfg_path), "--cycles", "20"]) == 0
        assert capsys.readouterr().out == "oracle agreement on 20/20 cycles\n"


@pytest.mark.parametrize(
    "entry",
    ["first_obs_timestamp", "cycle_candidates", "sample_airtimes", "CycleContext", "run length"],
)
def test_cycle_index_rule_is_one_rule(entry):
    # Every entry that takes a cycle index, and the run length, rejects a
    # non-integer, a bool and a value below 1 with the ospkit error naming
    # the value, and accepts a numpy integer.
    cfg = parse_config_dict(preset_config("rate-fast"))
    name, error, call = {
        "first_obs_timestamp": (
            "index", DomainError, lambda k: first_obs_timestamp(0.01, 0.003, k)),
        "cycle_candidates": (
            "index", DomainError, lambda k: cycle_candidates(cfg.model, k, [1e-4])),
        "sample_airtimes": ("index", DomainError, lambda k: sample_airtimes(cfg.channel, k)),
        "CycleContext": (
            "index", DomainError, lambda k: CycleContext((), (), 0.01, k, None, np.eye(3))),
        "run length": (
            "count", ConfigError, lambda k: run_simulation(cfg.model, cfg.channel, "bnb", k)),
    }[entry]
    for k in (1.5, True, 0, -1):
        message = rf"^cycle {name} must be an integer >= 1, got {re.escape(repr(k))}$"
        with pytest.raises(error, match=message):
            call(k)
    call(np.int64(2))


class TestSelectionStats:
    def test_fractions(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        cfg = chan(6, 1e-5, 2e-5, seed=1)
        logs = run_simulation(model, cfg, "all", 10)
        stats = selection_stats(logs)
        assert set(stats) == set(range(6))
        assert all(v == 1.0 for v in stats.values())

    def test_none_policy_zero(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        cfg = chan(6, 1e-5, 2e-5, seed=1)
        stats = selection_stats(run_simulation(model, cfg, "none", 10))
        assert all(v == 0.0 for v in stats.values())
