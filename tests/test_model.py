"""Model-layer tests: the checks of the plant's inputs, and discretization
memoized by interval length, bit-equal to the dynamics primitives on
absolute times, in a bounded cache that does not change what a run
computes, with the boundary operator kept in the same cache entry."""
from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg

from ospkit import (
    DimensionError, DomainError, OrderingError, SystemModel, dynamics, run_simulation,
)
from ospkit.config import load_config, preset_config
from ospkit.model import _SYM_TOL, DISC_CACHE_SIZE, check_covariance

from conftest import A3, B3, C_MIX, Q3, T3, make_model, scalar_model


@pytest.fixture()
def model():
    return make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)


def preset_run(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(preset_config(name)))
    return load_config(path)


class TestChecks:
    def test_check_covariance_returns_float_array(self):
        M = check_covariance("M", [[2, 1], [1, 2]], 2)
        assert M.dtype == float and np.array_equal(M, [[2.0, 1.0], [1.0, 2.0]])

    def test_check_covariance_symmetrizes_a_near_symmetric_input(self):
        M = np.array([[2.0, 1.0], [1.0 + 0.5 * _SYM_TOL, 2.0]])
        got = check_covariance("M", M, 2)
        assert np.array_equal(got, got.T) and np.array_equal(got, (M + M.T) / 2.0)
        assert got is not M and M[1, 0] != M[0, 1]

    @pytest.mark.parametrize(
        "T, periods",
        [(np.inf, (T3,) * 6), (np.nan, (T3,) * 6), (T3, (T3,) * 5 + (np.inf,)),
         (T3, (np.nan,) + (T3,) * 5)],
        ids=["T-inf", "T-nan", "period-inf", "period-nan"],
    )
    def test_model_rejects_non_finite_periods(self, T, periods):
        with pytest.raises(DomainError, match="finite and > 0"):
            SystemModel(A=A3, B=B3, C=C_MIX, Q=Q3, R=np.diag([1e-2] * 6), T=T,
                        observer_periods=periods)

    @pytest.mark.parametrize(
        "field, value, error, match",
        [("Q", np.eye(2), DimensionError, "Q must be 3x3"),
         ("Q", np.triu(np.ones((3, 3))), DomainError, "Q must be symmetric"),
         ("Q", -np.eye(3), DomainError, "Q must be positive semi-definite"),
         ("Q", np.diag([1.0, np.inf, 1.0]), DomainError, "Q contains non-finite"),
         ("R", np.diag([1e-2] * 5 + [0.0]), DomainError, "R must have a positive diagonal"),
         ("R", np.diag([1e-2] * 5 + [-1.0]), DomainError, "R must have a positive diagonal")],
        ids=["Q-shape", "Q-asymmetric", "Q-not-psd", "Q-non-finite", "R-zero", "R-negative"],
    )
    def test_model_rejects_bad_noise(self, field, value, error, match):
        kwargs = dict(A=A3, B=B3, C=C_MIX, Q=Q3, R=np.diag([1e-2] * 6), T=T3,
                      observer_periods=(T3,) * 6)
        kwargs[field] = value
        with pytest.raises(error, match=match):
            SystemModel(**kwargs)


class TestDiscretize:
    def test_matches_dynamics_on_absolute_times(self, model):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s, t = np.sort(rng.uniform(0.0, 0.05, size=2)).tolist()
            Phi, Qd = model.discretize(t - s)
            want_Phi, want_Qd = dynamics.discretize(A3, Q3, t - s)
            assert np.array_equal(Phi, want_Phi) and np.array_equal(Qd, want_Qd)
            Lam = model.input_lambda(t - s)
            assert np.array_equal(Lam, dynamics.input_integral(A3, B3, t - s))

    @pytest.mark.parametrize("dt", [0.0, 0.004, 0.05], ids=["zero", "one-substep", "25-substeps"])
    def test_miss_is_one_exponential(self, model, monkeypatch, dt):
        calls = []
        expm = scipy.linalg.expm

        def counted_expm(M):
            calls.append(M)
            return expm(M)

        monkeypatch.setattr(scipy.linalg, "expm", counted_expm)
        model.discretize(dt)
        assert len(calls) == 1
        model.discretize(dt)
        model.boundary_operator(dt)
        assert len(calls) == 1

    @pytest.mark.parametrize("steps", [1, 2, 3, 8, 25, 200])
    def test_miss_is_bit_equal_to_dynamics(self, model, steps):
        # ||A3||_inf = 1000 caps a Van Loan substep at 2e-3, so this length
        # takes `steps` substeps; the model builds its block once and must
        # still give what the checked public operator gives.
        dt = (steps - 0.5) * 2e-3
        assert dt not in model._disc_cache
        Phi, Qd = model.discretize(dt)
        want_Phi, want_Qd = dynamics.discretize(A3, Q3, dt)
        assert Phi.tobytes() == want_Phi.tobytes() and Qd.tobytes() == want_Qd.tobytes()

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


class TestBoundaryOperator:
    def test_is_phi_gram_and_noise_trace(self, model):
        rng = np.random.default_rng(5)
        for dt in [0.0, *rng.uniform(0.0, 0.05, size=30).tolist()]:
            M, c = model.boundary_operator(dt)
            Phi, Qd = model.discretize(dt)
            want = Phi.T @ Phi
            assert M.tobytes() == want.tobytes() and M.shape == want.shape
            assert c == float(np.trace(Qd)) and type(c) is float

    def test_shares_the_discretize_entry(self, model):
        M, c = model.boundary_operator(1e-3)
        assert list(model._disc_cache) == [1e-3]
        model.discretize(1e-3)
        model.input_lambda(1e-3)
        assert list(model._disc_cache) == [1e-3]
        assert model.boundary_operator(1e-3)[0] is M

    def test_evicted_with_its_entry(self):
        model = scalar_model(a=-3.0, q=0.5)
        lengths = [(i + 1) * 1e-5 for i in range(DISC_CACHE_SIZE + 10)]
        first = lengths[0]
        first_M, first_c = model.boundary_operator(first)
        for dt in lengths[1:]:
            model.discretize(dt)
        assert len(model._disc_cache) == DISC_CACHE_SIZE
        assert first not in model._disc_cache
        M, c = model.boundary_operator(first)
        assert M is not first_M
        assert np.array_equal(M, first_M) and c == first_c
        assert len(model._disc_cache) == DISC_CACHE_SIZE

    @pytest.mark.parametrize(
        "dt, error",
        [(-1e-3, OrderingError), (np.nan, DomainError), (np.inf, DomainError),
         (-np.inf, DomainError)],
        ids=["negative", "nan", "inf", "minus-inf"],
    )
    def test_bad_length_raises_and_caches_nothing(self, model, dt, error):
        model.boundary_operator(1e-3)
        with pytest.raises(error):
            model.boundary_operator(dt)
        assert list(model._disc_cache) == [1e-3]


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
