"""Kalman-layer tests: timetable against a grid-enumeration oracle,
covariance operators against Joseph-form and closed-form scalar oracles,
sequence MSE closed forms and prefix reuse, estimate propagation chaining."""
from __future__ import annotations

import numpy as np
import pytest

from ospkit import (
    ConfigError,
    DomainError,
    Observation,
    OrderingError,
    cycle_candidates,
    dynamics,
    first_obs_timestamp,
    g_step,
    predict_cov,
    propagate_estimate,
    scalar_update_cov,
    sequence_mse,
    update_estimate,
)

from conftest import (
    A3,
    C_MIX,
    Q3,
    T3,
    first_obs_grid_oracle,
    make_model,
    scalar_model,
)


class TestFirstObsTimestamp:
    def test_equal_periods(self):
        assert first_obs_timestamp(0.01, 0.01, 1) == 0.0
        assert first_obs_timestamp(0.01, 0.01, 7) == pytest.approx(0.06, abs=0)

    def test_fast_observer(self):
        assert first_obs_timestamp(0.01, 0.003, 1) == 0.0
        assert first_obs_timestamp(0.01, 0.003, 2) == pytest.approx(0.012, rel=1e-15)
        assert first_obs_timestamp(0.01, 0.003, 3) == pytest.approx(0.021, rel=1e-15)

    def test_slow_observer(self):
        assert first_obs_timestamp(0.01, 0.025, 1) is None
        assert first_obs_timestamp(0.01, 0.025, 2) is None
        assert first_obs_timestamp(0.01, 0.025, 3) == pytest.approx(0.025, rel=1e-15)
        assert first_obs_timestamp(0.01, 0.025, 5) == pytest.approx(0.05, rel=1e-15)

    def test_boundary_grid_point_single_owner(self):
        # T_n = 0.053, T = 0.01: the grid point 1.59 sits exactly on the
        # cycle-159/160 boundary and must belong to cycle 159 only.
        t159 = first_obs_timestamp(0.01, 0.053, 159)
        t160 = first_obs_timestamp(0.01, 0.053, 160)
        assert t159 == pytest.approx(1.59, rel=1e-15)
        assert t160 is None or t160 > 1.59

    def test_no_double_assignment_slow(self):
        # Every slow-observer grid point appears in exactly one cycle.
        for T_n in (0.025, 0.053, 0.03):
            seen = {}
            for k in range(1, 400):
                t = first_obs_timestamp(0.01, T_n, k)
                if t is not None:
                    assert t not in seen, (T_n, k, seen[t])
                    seen[t] = k

    def test_grid_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            T = float(rng.uniform(0.004, 0.02))
            regime = rng.integers(0, 3)
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
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (T, T_n, k)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            first_obs_timestamp(0.01, 0.003, 0)
        with pytest.raises(DomainError):
            first_obs_timestamp(0.01, -1.0, 1)


class TestCycleCandidates:
    def test_mixed_rates(self):
        model = make_model(
            [[1.0, 0, 0], [0, 1.0, 0]], np.diag([1e-2, 1e-2]), (0.003, 0.025)
        )
        got = cycle_candidates(model, 2)
        assert len(got) == 1
        assert got[0].observer == 0
        assert got[0].timestamp == pytest.approx(0.012, rel=1e-15)

    def test_no_observers(self):
        model = make_model(np.zeros((0, 3)), np.zeros((0, 0)), ())
        assert cycle_candidates(model, 5) == []


class TestCovarianceOperators:
    def test_predict_zero_interval(self):
        model = make_model(C_MIX, np.eye(6), (T3,) * 6)
        P = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(predict_cov(model, P, 0.2, 0.2), P)

    def test_predict_scalar_integrator(self):
        model = scalar_model(a=0.0, q=0.5)
        got = predict_cov(model, np.array([[2.0]]), 0.0, 3.0)
        np.testing.assert_allclose(got, [[2.0 + 0.5 * 3.0]], rtol=1e-13)

    def test_predict_recomposition(self):
        model = make_model(C_MIX, np.eye(6), (T3,) * 6)
        P = np.diag([1.0, 2.0, 3.0])
        got = predict_cov(model, P, 0.0, 0.004)
        F = dynamics.phi(A3, 0.0, 0.004)
        want = F @ P @ F.T + dynamics.noise_cov(A3, Q3, 0.0, 0.004)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_update_zero_row_is_identity(self):
        P = np.diag([1.0, 2.0, 3.0])
        post = scalar_update_cov(P, np.zeros(3), 0.4)
        assert isinstance(post, np.ndarray)
        np.testing.assert_array_equal(post, P)

    def test_update_scalar_closed_form(self):
        p, r = 2.0, 0.5
        post = scalar_update_cov(np.array([[p]]), np.array([1.0]), r)
        np.testing.assert_allclose(post, [[p * r / (p + r)]], rtol=1e-14)
        # The update removes p^2 / e, with innovation variance e = p + r.
        assert p - post[0, 0] == pytest.approx(p**2 / (p + r), rel=1e-14)

    def test_update_joseph_form_oracle(self):
        P = np.eye(3)
        c = C_MIX[0]
        r = 1e-2
        post = scalar_update_cov(P, c, r)
        K = (P @ c) / (c @ P @ c + r)
        J = np.eye(3) - np.outer(K, c)
        want = J @ P @ J.T + r * np.outer(K, K)
        np.testing.assert_allclose(post, want, rtol=1e-12, atol=1e-15)

    def test_update_rejects_nonpositive_variance(self):
        with pytest.raises(DomainError):
            scalar_update_cov(np.eye(2), np.array([1.0, 0.0]), 0.0)

    def test_g_step_composes(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        P = np.eye(3)
        got = g_step(model, P, 0.0, 0.004, 2)
        prior = predict_cov(model, P, 0.0, 0.004)
        want = scalar_update_cov(prior, C_MIX[2], 1e-2)
        np.testing.assert_array_equal(got, want)

    def test_update_never_increases_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            G = rng.normal(size=(n, n))
            P = G @ G.T + 1e-6 * np.eye(n)
            c = rng.normal(size=n)
            post = scalar_update_cov(P, c, float(rng.uniform(1e-3, 1.0)))
            assert np.trace(post) <= np.trace(P) + 1e-12
            assert np.linalg.eigvalsh(post).min() >= -1e-10


class TestSequenceMse:
    def test_empty_sequence_closed_form(self):
        model = scalar_model(a=0.0, q=0.25, T=1.0)
        mse, cov = sequence_mse(model, np.array([[2.0]]), 0.0, [], 1.0)
        assert mse == pytest.approx(2.0 + 0.25, rel=1e-13)
        np.testing.assert_array_equal(cov, [[2.0]])

    def test_single_observation_closed_form(self):
        p0, q, r = 2.0, 0.25, 0.5
        model = scalar_model(a=0.0, q=q, r=r, T=1.0)
        obs = Observation(observer=0, timestamp=0.4)
        mse, cov = sequence_mse(model, np.array([[p0]]), 0.0, [obs], 1.0)
        p_pre = p0 + q * 0.4
        p_post = p_pre * r / (p_pre + r)
        assert cov[0, 0] == pytest.approx(p_post, rel=1e-12)
        assert mse == pytest.approx(p_post + q * 0.6, rel=1e-12)

    def test_simultaneous_observations_allowed(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        seq = [Observation(0, 0.0), Observation(1, 0.0), Observation(2, 0.004)]
        mse, _ = sequence_mse(model, np.eye(3), 0.0, seq, 0.01)
        assert np.isfinite(mse) and mse > 0.0

    def test_prefix_reuse_matches_from_scratch(self):
        model = make_model(C_MIX, np.diag([1e-2, 1.0] * 3), (T3,) * 6)
        rng = np.random.default_rng(41)
        for _ in range(50):
            L = int(rng.integers(1, 7))
            ts = np.sort(rng.uniform(0.0, T3, size=L))
            seq = [
                Observation(int(rng.integers(0, 6)), float(t)) for t in ts
            ]
            full_mse, full_cov = sequence_mse(model, np.eye(3), 0.0, seq, T3)
            # Incremental route: prefix running covariance extended one step.
            _, pre_cov = sequence_mse(model, np.eye(3), 0.0, seq[:-1], T3)
            t_prev = seq[-2].timestamp if L > 1 else 0.0
            inc_cov = g_step(model, pre_cov, t_prev, seq[-1].timestamp, seq[-1].observer)
            inc_mse = float(np.trace(predict_cov(model, inc_cov, seq[-1].timestamp, T3)))
            np.testing.assert_allclose(inc_cov, full_cov, rtol=1e-12, atol=1e-15)
            assert inc_mse == pytest.approx(full_mse, rel=1e-12)

    def test_adding_an_observation_never_hurts(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        rng = np.random.default_rng(43)
        for _ in range(50):
            ts = np.sort(rng.uniform(0.0, T3, size=3))
            seq = [Observation(int(rng.integers(0, 6)), float(t)) for t in ts]
            m_full, _ = sequence_mse(model, np.eye(3), 0.0, seq, T3)
            m_drop, _ = sequence_mse(model, np.eye(3), 0.0, seq[:-1], T3)
            assert m_full <= m_drop + 1e-10

    def test_rejects_decreasing_timestamps(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        seq = [Observation(0, 0.006), Observation(1, 0.002)]
        with pytest.raises(OrderingError):
            sequence_mse(model, np.eye(3), 0.0, seq, 0.01)


class TestEstimatePropagation:
    def test_zero_input_is_pure_transition(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        x = np.array([1.0, -2.0, 0.5])
        got = propagate_estimate(model, x, None, 0.0, 0.004)
        np.testing.assert_allclose(got, dynamics.phi(A3, 0.0, 0.004) @ x, rtol=1e-13)

    def test_scalar_integrator_with_input(self):
        # a = 0, b = 2: x(t) = x(s) + b u (t - s) within one cycle.
        model = scalar_model(a=0.0, b=2.0, q=0.0, T=1.0)
        got = propagate_estimate(model, np.array([3.0]), {0: np.array([0.5])}, 0.2, 0.9)
        assert got[0] == pytest.approx(3.0 + 2.0 * 0.5 * 0.7, rel=1e-12)

    def test_segment_chaining_across_boundaries(self):
        # Propagating over two cycles in one call must equal two chained
        # single-cycle calls (inputs switch at the boundary).
        model = scalar_model(a=-1.0, b=2.0, q=0.0, T=1.0)
        inputs = {0: np.array([0.5]), 1: np.array([-0.25])}
        x = np.array([3.0])
        full = propagate_estimate(model, x, inputs, 0.3, 1.7)
        mid = propagate_estimate(model, x, inputs, 0.3, 1.0)
        split = propagate_estimate(model, mid, inputs, 1.0, 1.7)
        np.testing.assert_allclose(full, split, rtol=1e-12)

    def test_semigroup_zero_input(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        x = np.array([1.0, -2.0, 0.5])
        full = propagate_estimate(model, x, None, 0.0, 0.008)
        split = propagate_estimate(model, propagate_estimate(model, x, None, 0.0, 0.003), None, 0.003, 0.008)
        np.testing.assert_allclose(full, split, rtol=1e-9)

    def test_missing_cycle_input_raises(self):
        model = scalar_model(a=0.0, b=1.0, T=1.0)
        with pytest.raises(ConfigError):
            propagate_estimate(model, np.array([0.0]), {0: np.array([1.0])}, 0.0, 2.5)


class TestUpdateEstimate:
    def test_scalar_closed_form(self):
        x, P = np.array([0.0]), np.array([[2.0]])
        y, r = 1.0, 0.5
        xn, Pn = update_estimate(x, P, y, np.array([1.0]), r)
        assert xn[0] == pytest.approx(y * 2.0 / 2.5, rel=1e-13)
        assert Pn[0, 0] == pytest.approx(2.0 * 0.5 / 2.5, rel=1e-13)

    def test_gain_matches_joseph_oracle(self):
        # From xhat = 0 with y = 1 the updated estimate is the gain itself;
        # the covariance is scalar_update_cov's, bit for bit.
        P, c, r = np.eye(3), C_MIX[0], 1e-2
        xn, Pn = update_estimate(np.zeros(3), P, 1.0, c, r)
        np.testing.assert_allclose(xn, (P @ c) / (c @ P @ c + r), rtol=1e-13)
        np.testing.assert_array_equal(Pn, scalar_update_cov(P, c, r))

    def test_exact_observation_is_ignored_when_predicted(self):
        # Innovation zero -> estimate unchanged, covariance still shrinks.
        x = np.array([1.0, 2.0, 3.0])
        c = C_MIX[0]
        xn, Pn = update_estimate(x, np.eye(3), float(c @ x), c, 1e-2)
        np.testing.assert_allclose(xn, x, rtol=1e-13)
        assert np.trace(Pn) < 3.0

    def test_huge_noise_limit(self):
        x = np.array([1.0, 2.0, 3.0])
        c = np.array([1.0, 0.0, 0.0])
        xn, Pn = update_estimate(x, np.eye(3), 100.0, c, 1e12)
        np.testing.assert_allclose(xn, x, atol=1e-9)
        np.testing.assert_allclose(Pn, np.eye(3), atol=1e-10)
