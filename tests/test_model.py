"""Model-layer tests: discretization memoized by interval length, bit-equal
to the dynamics primitives on absolute times, in a bounded cache that does
not change what a run computes."""
from __future__ import annotations

import json

import numpy as np
import pytest

from ospkit import SystemModel, dynamics, run_simulation
from ospkit.config import load_config, preset_config
from ospkit.model import DISC_CACHE_SIZE

from conftest import A3, B3, C_MIX, Q3, T3, make_model, scalar_model


@pytest.fixture()
def model():
    return make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)


def preset_run(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(preset_config(name)))
    return load_config(path)


class TestDiscretize:
    def test_matches_dynamics_on_absolute_times(self, model):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s, t = np.sort(rng.uniform(0.0, 0.05, size=2)).tolist()
            Phi, Qd = model.discretize(t - s)
            assert np.array_equal(Phi, dynamics.phi(A3, s, t))
            assert np.array_equal(Qd, dynamics.noise_cov(A3, Q3, s, t))
            Lam = model.input_lambda(t - s)
            assert np.array_equal(Lam, dynamics.input_integral(A3, B3, s, t))

    def test_zero_length_is_exact(self, model):
        Phi, Qd = model.discretize(0.0)
        assert np.array_equal(Phi, np.eye(3)) and not Qd.any()
        assert not model.input_lambda(0.0).any()

    def test_cache_is_not_an_init_field(self, model):
        with pytest.raises(TypeError):
            SystemModel(
                A=A3, B=B3, C=C_MIX, Q=Q3, R=np.diag([1e-2] * 6), T=T3,
                observer_periods=(T3,) * 6, _disc_cache={},
            )

    def test_cache_bounded_oldest_evicted_first(self):
        model = scalar_model(a=-3.0, q=0.5)
        lengths = [(i + 1) * 1e-5 for i in range(DISC_CACHE_SIZE + 10)]
        first = lengths[0]
        first_phi, first_qd = model.discretize(first)
        for dt in lengths[1:]:
            model.discretize(dt)
        assert len(model._disc_cache) == DISC_CACHE_SIZE
        assert first not in model._disc_cache and lengths[-1] in model._disc_cache
        Phi, Qd = model.discretize(first)
        assert Phi is not first_phi
        assert np.array_equal(Phi, first_phi) and np.array_equal(Qd, first_qd)
        assert len(model._disc_cache) == DISC_CACHE_SIZE

    def test_long_run_cache_stays_small(self, tmp_path):
        # Interval lengths repeat from cycle to cycle, so the cache holds a
        # few dozen lengths where absolute (s, t) keys held about 900.
        cfg = preset_run(tmp_path, "blackout-6of6-100000")
        run_simulation(cfg.model, cfg.channel, "bnb", 300, initial_cov=cfg.initial_cov())
        assert 0 < len(cfg.model._disc_cache) <= 32

    def test_prediction_only_run_cache_stays_small(self, tmp_path):
        # Bounded work per cycle, without timing it: a run that never
        # harvests still predicts from the cycle start, so the interval
        # lengths do not grow with the cycle index (an anchor left at t = 0
        # would add the new length kT every cycle and fill the cache).
        cfg = preset_run(tmp_path, "unconstrained")
        run_simulation(cfg.model, cfg.channel, "none", 1600, initial_cov=cfg.initial_cov())
        assert 0 < len(cfg.model._disc_cache) <= 32


class TestWarmCache:
    @staticmethod
    def assert_same_logs(a, b):
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            assert la.seq == lb.seq and la.nodes_visited == lb.nodes_visited
            assert la.mse_pred == lb.mse_pred and la.sq_err == lb.sq_err
            assert np.array_equal(la.true_state, lb.true_state)
            assert np.array_equal(la.est_state, lb.est_state)
            assert np.array_equal(la.prior_cov, lb.prior_cov)

    @pytest.mark.parametrize("name", ["blackout-6of6-100000", "rate-slow"])
    def test_warm_model_runs_like_fresh(self, tmp_path, name):
        cfg = preset_run(tmp_path, name)
        warm = cfg.model
        run_simulation(warm, cfg.channel, "bnb", 40, initial_cov=cfg.initial_cov())
        assert warm._disc_cache
        fresh = preset_run(tmp_path, name).model
        args = (cfg.channel, "bnb", 40)
        self.assert_same_logs(
            run_simulation(warm, *args, initial_cov=cfg.initial_cov()),
            run_simulation(fresh, *args, initial_cov=cfg.initial_cov()),
        )

    def test_warm_model_runs_like_fresh_with_inputs(self, tmp_path):
        cfg = preset_run(tmp_path, "baseline-compare-diff")
        inputs = {j: [np.sin(j)] for j in range(31)}
        warm = cfg.model
        run_simulation(warm, cfg.channel, "greedy", 30, inputs=inputs)
        fresh = preset_run(tmp_path, "baseline-compare-diff").model
        self.assert_same_logs(
            run_simulation(warm, cfg.channel, "greedy", 30, inputs=inputs),
            run_simulation(fresh, cfg.channel, "greedy", 30, inputs=inputs),
        )
