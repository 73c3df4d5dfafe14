"""Simulation-layer tests: airtime sampling reproducibility and bounds,
true-state stepping statistics, per-cycle log invariants, shared-world
policy comparisons, the decision-cycle pipeline shared with the oracle
command, and selection statistics."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from ospkit import (
    ChannelConfig,
    SystemModel,
    ConfigError,
    DomainError,
    NumericError,
    cycle_candidates,
    decision_cycles,
    run_simulation,
    sample_airtimes,
    scheduler,
    selection_stats,
    step_true_state,
)
from ospkit import dynamics
from ospkit.cli import run_cli
from ospkit.config import PRESET_NAMES, parse_config_dict, preset_config
from ospkit.sim import _fuse
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
        with pytest.raises(DomainError, match="cycle index must be >= 1"):
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

    def test_rate_fast_run_reads_each_length_once_per_step(self, monkeypatch):
        # A noisy step with an input looks its length up through one
        # discretize call, in propagate_estimate; input_lambda and the noise
        # factor read the same cache entry.  Each looked it up through
        # discretize again before: 3924 calls for 33 lengths.  Misses still
        # go through discretize, one per length.
        cfg = parse_config_dict(preset_config("rate-fast"))
        calls, misses = [], []
        discretize, kernel = SystemModel.discretize, dynamics._discretize
        monkeypatch.setattr(
            SystemModel, "discretize", lambda self, dt: calls.append(dt) or discretize(self, dt)
        )
        monkeypatch.setattr(dynamics, "_discretize", lambda *a: misses.append(1) or kernel(*a))
        inputs = {j: np.ones(cfg.model.n_agents) for j in range(300)}
        run_simulation(cfg.model, cfg.channel, "bnb", 300, inputs=inputs)
        assert len(calls) == 2224
        assert len(misses) == len(set(calls)) == len(cfg.model._disc_cache) == 33


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
        assert any(c.timestamp == 53 * cfg.model.T for c in cycle_candidates(cfg.model, 53))
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
    @pytest.mark.parametrize("name", PRESETS)
    def test_fusion_covariance_is_running_cov(self, name, policy):
        # The simulator fuses with its own predict/update chain while the
        # next cycle's anchor is the search's running covariance: the two
        # must agree bit for bit.
        model, channel, P0 = self.preset(name)
        x = np.zeros(model.n_states)
        harvested = 0
        for ctx, ev in decision_cycles(model, channel, policy, P0, 30):
            observed = [(ctx.candidates[i], 0.0) for i in ev.seq]
            _, P, _ = _fuse(model, x, ctx.prior_cov, ctx.t0, None, observed)
            assert np.array_equal(P, ev.running_cov)
            harvested += bool(ev.seq)
        assert harvested > 0

    def test_unknown_policy_raises_before_cycle_one(self):
        model, channel, P0 = self.preset("rate-fast")
        with pytest.raises(ConfigError, match="psychic"):
            next(decision_cycles(model, channel, "psychic", P0, 1))

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

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_oracle_command_agrees(self, tmp_path, capsys, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config(name)))
        assert run_cli(["oracle", "--config", str(cfg_path), "--cycles", "20"]) == 0
        assert capsys.readouterr().out == "oracle agreement on 20/20 cycles\n"


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
