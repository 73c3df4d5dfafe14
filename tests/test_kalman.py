"""Kalman-layer tests: timetable against a grid-enumeration oracle,
covariance operators against Joseph-form and closed-form scalar oracles,
sequence MSE closed forms and prefix reuse, the boundary operator against
the boundary prediction, estimate propagation chaining."""
from __future__ import annotations

import numpy as np
import pytest

from ospkit import (
    Candidate,
    DimensionError,
    DomainError,
    OrderingError,
    cycle_candidates,
    first_obs_timestamp,
    g_step,
    predict_cov,
    preset_config,
    propagate_estimate,
    run_simulation,
    sequence_mse,
    step_true_state,
    update_estimate,
)
import ospkit
from ospkit import dynamics, kalman, scheduler
from ospkit.config import PRESET_NAMES, parse_config_dict
from ospkit.dynamics import symmetrize

from conftest import (
    A3,
    C_MIX,
    Q3,
    T3,
    first_obs_grid_oracle,
    make_model,
    mp_noise_cov,
    mp_phi,
    plant,
    random_stable_system,
    scalar_model,
)


def reference_update(P, c, r):
    """The scalar update written with ``@`` and ``np.outer``."""
    Pc = P @ c
    e = float(c @ Pc) + r
    return P - np.outer(Pc, Pc) / e


def posterior(P, c, r):
    """The posterior covariance of ``update_estimate``, the checked update."""
    return update_estimate(np.zeros(len(c)), P, 0.0, c, r)[1]


def reference_g_step(model, P, t_i, t_j, observer):
    """``g_step`` written with ``@`` and ``np.outer``, reading the row and
    variance from C and R."""
    if t_j != t_i:
        Phi, Qd = model.discretize(t_j - t_i)
        P = symmetrize(Phi @ P @ Phi.T + Qd)
    return reference_update(P, model.C[observer], model.R[observer, observer])


def random_plant(rng, S):
    """A stable S-state plant with four observers of random rows and noise
    variances, and a random symmetric positive-definite covariance."""
    A, Q = random_stable_system(rng, S)
    C = rng.normal(size=(4, S))
    R = np.diag(10.0 ** rng.uniform(-3.0, 0.0, size=4))
    model = make_model(C, R, (1.0,) * 4, A=A, B=np.zeros((S, 1)), Q=Q, T=1.0)
    G = rng.normal(size=(S, S))
    return model, symmetrize(G @ G.T + 1e-3 * np.eye(S))


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
        for T, T_n in ((np.inf, 0.003), (0.01, np.inf), (np.nan, 0.01)):
            with pytest.raises(DomainError, match="finite and > 0"):
                first_obs_timestamp(T, T_n, 1)


class TestCycleCandidates:
    def test_mixed_rates(self):
        model = make_model(
            [[1.0, 0, 0], [0, 1.0, 0]], np.diag([1e-2, 1e-2]), (0.003, 0.025)
        )
        got = cycle_candidates(model, 2, (1e-3, 2e-3))
        assert len(got) == 1
        assert got[0].observer == 0 and got[0].airtime == 1e-3
        assert got[0].timestamp == pytest.approx(0.012, rel=1e-15)
        # Cycle 3 holds the slow observer's grid point 0.025 as well.
        got = sorted(cycle_candidates(model, 3, (1e-3, 2e-3)), key=lambda c: c.observer)
        assert [(c.observer, c.airtime) for c in got] == [(0, 1e-3), (1, 2e-3)]
        assert got[1].timestamp == pytest.approx(0.025, rel=1e-15)

    def test_no_observers(self):
        model = make_model(np.zeros((0, 3)), np.zeros((0, 0)), ())
        assert cycle_candidates(model, 5, ()) == []

    def test_observer_n_gets_airtime_n(self):
        # Four observers at four periods around T = 0.01: the slow ones
        # (0.025, 0.017) skip cycles, so the subset offered changes from
        # cycle to cycle and an observer's place in the list is not its index.
        periods = (0.01, 0.003, 0.025, 0.017)
        model = make_model(np.eye(4, 3), np.diag([1e-2] * 4), periods)
        airtimes = np.array([1e-4, 2e-4, 3e-4, 4e-4])
        subsets = set()
        for k in range(1, 60):
            got = cycle_candidates(model, k, airtimes)
            for c in got:
                assert type(c.airtime) is float and c.airtime == airtimes[c.observer]
            subsets.add(frozenset(c.observer for c in got))
        assert len(subsets) > 1
        assert set().union(*subsets) == set(range(4))

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_airtime_per_observer(self, n):
        # Three airtimes for blackout's six observers used to raise a bare
        # IndexError, and eight to drop the extra two silently.
        model = parse_config_dict(preset_config("blackout-6of6-100000")).model
        assert len(cycle_candidates(model, 1, np.full(6, 1e-4))) == 6
        with pytest.raises(DimensionError, match=rf"\(6\), got {n}$"):
            cycle_candidates(model, 1, np.full(n, 1e-4))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_each_timestamp_is_first_obs_timestamps(self, name):
        # cycle_candidates checks k once and runs first_obs_timestamp's
        # arithmetic unchecked; rate-fast and rate-slow hold an observer
        # faster and one slower than the cycle.
        model = parse_config_dict(preset_config(name)).model
        airtimes = np.linspace(1e-4, 6e-4, model.n_observers)
        for k in range(1, 2001):
            want = [
                Candidate(t, float(airtimes[n]), n)
                for n, T_n in enumerate(model.observer_periods)
                if (t := first_obs_timestamp(model.T, T_n, k)) is not None
            ]
            got = cycle_candidates(model, k, airtimes)
            assert got == want, k
            assert [np.float64(c.timestamp).tobytes() for c in got] == [
                np.float64(c.timestamp).tobytes() for c in want
            ], k

    def test_one_candidate_class(self):
        assert kalman.Candidate is scheduler.Candidate is ospkit.Candidate


class TestCovarianceOperators:
    def test_predict_zero_interval(self):
        model = make_model(C_MIX, np.eye(6), (T3,) * 6)
        P = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(predict_cov(model, P, 0.2, 0.2), P)

    def test_zero_length_predict_returns_its_input(self):
        model = make_model(C_MIX, np.eye(6), (T3,) * 6)
        P = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
        for t in (0.0, 0.37):
            assert predict_cov(model, P, t, t) is P
        assert not model._disc_cache

    def test_predict_scalar_integrator(self):
        model = scalar_model(a=0.0, q=0.5)
        got = predict_cov(model, np.array([[2.0]]), 0.0, 3.0)
        np.testing.assert_allclose(got, [[2.0 + 0.5 * 3.0]], rtol=1e-13)

    def test_predict_recomposition(self):
        model = make_model(C_MIX, np.eye(6), (T3,) * 6)
        P = np.diag([1.0, 2.0, 3.0])
        got = predict_cov(model, P, 0.0, 0.004)
        F = mp_phi(A3, 0.004)
        want = F @ P @ F.T + mp_noise_cov(A3, Q3, 0.004)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_update_zero_row_is_identity(self):
        P = np.diag([1.0, 2.0, 3.0])
        post = posterior(P, np.zeros(3), 0.4)
        assert isinstance(post, np.ndarray)
        np.testing.assert_array_equal(post, P)

    def test_update_scalar_closed_form(self):
        p, r = 2.0, 0.5
        post = posterior(np.array([[p]]), np.array([1.0]), r)
        np.testing.assert_allclose(post, [[p * r / (p + r)]], rtol=1e-14)
        # The update removes p^2 / e, with innovation variance e = p + r.
        assert p - post[0, 0] == pytest.approx(p**2 / (p + r), rel=1e-14)

    def test_update_joseph_form_oracle(self):
        P = np.eye(3)
        c = C_MIX[0]
        r = 1e-2
        post = posterior(P, c, r)
        K = (P @ c) / (c @ P @ c + r)
        J = np.eye(3) - np.outer(K, c)
        want = J @ P @ J.T + r * np.outer(K, K)
        np.testing.assert_allclose(post, want, rtol=1e-12, atol=1e-15)

    def test_update_rejects_nonpositive_variance(self):
        for r in (0.0, -1e-3, np.nan):
            with pytest.raises(DomainError):
                update_estimate(np.zeros(2), np.eye(2), 1.0, np.array([1.0, 0.0]), r)

    def test_g_step_composes(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        P = np.eye(3)
        got = g_step(model, P, 0.0, 0.004, 2)
        prior = predict_cov(model, P, 0.0, 0.004)
        want = posterior(prior, C_MIX[2], 1e-2)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("S", range(1, 7))
    def test_g_step_bits_match_the_reference_step(self, S):
        # The kernel multiplies with ndarray.dot and skips the checks; its
        # bits are those of the @ / np.outer step, for zero and non-zero
        # lengths and for a far length t_k - t_i, the sum of two lengths
        # the model already holds, which is its own exponential.
        rng = np.random.default_rng(2000 + S)
        model, P = random_plant(rng, S)
        for _ in range(40):
            t_i = float(rng.uniform(0.0, 0.5))
            dt = 0.0 if rng.random() < 0.3 else float(rng.uniform(1e-4, 0.5))
            t_j, n = t_i + dt, int(rng.integers(0, 4))
            got = g_step(model, P, t_i, t_j, n)
            want = reference_g_step(model, P, t_i, t_j, n)
            assert got.tobytes() == want.tobytes()
            a = float(rng.uniform(1e-4, 0.3))
            model.discretize(a), model.discretize(dt)
            t_k = t_i + a + dt
            Phi, Qd = model.discretize(t_k - t_i)
            want_Phi, want_Qd = dynamics._discretize(model._van_loan, t_k - t_i)
            assert Phi.tobytes() == want_Phi.tobytes() and Qd.tobytes() == want_Qd.tobytes()
            got = g_step(model, P, t_i, t_k, n)
            want = reference_g_step(model, P, t_i, t_k, n)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(posterior(P, model.C[n], model.R[n, n]),
                                  reference_update(P, model.C[n], model.R[n, n]))
            P = got

    def test_update_never_increases_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            G = rng.normal(size=(n, n))
            P = G @ G.T + 1e-6 * np.eye(n)
            c = rng.normal(size=n)
            post = posterior(P, c, float(rng.uniform(1e-3, 1.0)))
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
        obs = Candidate(timestamp=0.4, airtime=0.1, observer=0)
        mse, cov = sequence_mse(model, np.array([[p0]]), 0.0, [obs], 1.0)
        p_pre = p0 + q * 0.4
        p_post = p_pre * r / (p_pre + r)
        assert cov[0, 0] == pytest.approx(p_post, rel=1e-12)
        assert mse == pytest.approx(p_post + q * 0.6, rel=1e-12)

    def test_simultaneous_observations_allowed(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        seq = [Candidate(0.0, 1e-3, 0), Candidate(0.0, 1e-3, 1), Candidate(0.004, 1e-3, 2)]
        mse, _ = sequence_mse(model, np.eye(3), 0.0, seq, 0.01)
        assert np.isfinite(mse) and mse > 0.0

    def test_an_iterator_scores_as_its_list(self):
        # The observer check reads the sequence before the chain does.
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        seq = [Candidate(0.002, 1e-3, 0), Candidate(0.004, 1e-3, 1)]
        want = sequence_mse(model, np.eye(3), 0.0, seq, T3)
        got = sequence_mse(model, np.eye(3), 0.0, iter(seq), T3)
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()

    def test_prefix_reuse_matches_from_scratch(self):
        model = make_model(C_MIX, np.diag([1e-2, 1.0] * 3), (T3,) * 6)
        rng = np.random.default_rng(41)
        for _ in range(50):
            L = int(rng.integers(1, 7))
            ts = np.sort(rng.uniform(0.0, T3, size=L))
            seq = [
                Candidate(float(t), 1e-3, int(rng.integers(0, 6))) for t in ts
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
            seq = [Candidate(float(t), 1e-3, int(rng.integers(0, 6))) for t in ts]
            m_full, _ = sequence_mse(model, np.eye(3), 0.0, seq, T3)
            m_drop, _ = sequence_mse(model, np.eye(3), 0.0, seq[:-1], T3)
            assert m_full <= m_drop + 1e-10

    def test_rejects_decreasing_timestamps(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        seq = [Candidate(0.006, 1e-3, 0), Candidate(0.002, 1e-3, 1)]
        with pytest.raises(OrderingError):
            sequence_mse(model, np.eye(3), 0.0, seq, 0.01)

    @pytest.mark.parametrize(
        "observer", [-1, True, 6, 1.5], ids=["negative", "bool", "past-the-count", "float"]
    )
    def test_rejects_an_observer_id_the_model_lacks(self, observer):
        # Blackout has six observers; a negative id or a bool would index a
        # real observer's row and be scored silently.
        model = parse_config_dict(preset_config("blackout-6of6-100000")).model
        seq = [Candidate(0.0, 1e-4, 0), Candidate(model.T / 2, 1e-4, observer)]
        with pytest.raises(DomainError, match="candidate observer ids must be"):
            sequence_mse(model, np.eye(model.n_states), 0.0, seq, model.T)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_boundary_operator_matches_predict_cov(name):
    # <M, P> + c is the trace of the boundary prediction up to rounding:
    # bnb_search ranks with it and reports its winner through predict_cov.
    # The lengths are every interval a short bnb run of the preset visits.
    cfg = parse_config_dict(preset_config(name))
    model = cfg.model
    run_simulation(model, cfg.channel, "bnb", 20, initial_cov=cfg.initial_cov())
    rng = np.random.default_rng(47)
    S = model.n_states
    for dt in list(model._disc_cache):
        M, c = model.boundary_operator(dt)
        for _ in range(20):
            G = rng.normal(size=(S, S)) * 10.0 ** rng.uniform(-4.0, 2.0, size=S)
            P = G @ G.T
            want = float(np.trace(predict_cov(model, P, 0.0, dt)))
            assert float(np.vdot(M, P)) + c == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("S", [3, 1, 5])
def test_batched_stacked_predictors_have_each_steps_bits(S):
    # RankKernel builds an instance's stacked predictors in one broadcast
    # call over a stack of (Phi, Qd); each must have the bits and the
    # memory layout of _stacked_predictor on that pair alone, so that a
    # stacked predict over the rows gives the same bits either way.
    rng = np.random.default_rng(48 + S)
    model = plant(*random_stable_system(rng, S))
    pairs = [model.discretize(dt) for dt in rng.uniform(1e-4, 0.5, size=6)]
    K, q = kalman._stacked_predictor(*map(np.array, zip(*pairs)))
    G = rng.normal(size=(40, S, S))
    rows = (G @ G.transpose(0, 2, 1)).reshape(40, -1)
    for i, pair in enumerate(pairs):
        want_K, want_q = kalman._stacked_predictor(*pair)
        assert K[i].shape == want_K.shape == (S * S, S * S)
        assert (K[i].tobytes(), q[i].tobytes()) == (want_K.tobytes(), want_q.tobytes()), i
        assert (K[i].strides, q[i].strides) == (want_K.strides, want_q.strides), i
        got = rows.dot(K[i]) + q[i]
        assert got.tobytes() == (rows.dot(want_K) + want_q).tobytes(), i


class TestEstimatePropagation:
    def test_zero_input_is_pure_transition(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        x = np.array([1.0, -2.0, 0.5])
        got = propagate_estimate(model, x, None, 0.0, 0.004)
        np.testing.assert_allclose(got, mp_phi(A3, 0.004) @ x, rtol=1e-13)

    def test_scalar_integrator_with_input(self):
        # a = 0, b = 2: x(t) = x(s) + b u (t - s) within one cycle.
        model = scalar_model(a=0.0, b=2.0, q=0.0, T=1.0)
        got = propagate_estimate(model, np.array([3.0]), np.array([0.5]), 0.2, 0.9)
        assert got[0] == pytest.approx(3.0 + 2.0 * 0.5 * 0.7, rel=1e-12)

    def test_zero_interval_returns_the_state(self):
        # Like a zero-length predict_cov: no lookup, the input's values.
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        x = np.array([1.0, -2.0, 0.5])
        for u in (None, [1.0]):
            got = propagate_estimate(model, x, u, 0.004, 0.004)
            assert got.tobytes() == x.tobytes()
        assert not model._disc_cache

    def test_semigroup_zero_input(self):
        model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
        x = np.array([1.0, -2.0, 0.5])
        full = propagate_estimate(model, x, None, 0.0, 0.008)
        split = propagate_estimate(model, propagate_estimate(model, x, None, 0.0, 0.003), None, 0.003, 0.008)
        np.testing.assert_allclose(full, split, rtol=1e-9)


OPERATORS = {
    "predict_cov": lambda m, s, t: predict_cov(m, np.eye(3), s, t),
    "g_step": lambda m, s, t: g_step(m, np.eye(3), s, t, 0),
    "propagate_estimate": lambda m, s, t: propagate_estimate(m, np.ones(3), [1.0], s, t),
    "step_true_state": lambda m, s, t: step_true_state(
        m, np.ones(3), [1.0], s, t, np.random.default_rng(0)
    ),
}


@pytest.mark.parametrize(
    "s, t, error",
    [(0.004, 0.002, OrderingError), (0.0, np.nan, DomainError),
     (np.nan, 0.004, DomainError), (0.0, np.inf, DomainError)],
    ids=["reversed", "nan-end", "nan-start", "inf-end"],
)
@pytest.mark.parametrize("op", OPERATORS)
def test_interval_checked_by_discretize(op, s, t, error):
    # model.discretize never caches a bad length, so the interval check in
    # dynamics runs for every caller, on a warm model too.
    model = make_model(C_MIX, np.diag([1e-2] * 6), (T3,) * 6)
    OPERATORS[op](model, 0.002, 0.004)
    cached = set(model._disc_cache)
    with pytest.raises(error):
        OPERATORS[op](model, s, t)
    assert set(model._disc_cache) == cached


class TestUpdateEstimate:
    def test_scalar_closed_form(self):
        x, P = np.array([0.0]), np.array([[2.0]])
        y, r = 1.0, 0.5
        xn, Pn = update_estimate(x, P, y, np.array([1.0]), r)
        assert xn[0] == pytest.approx(y * 2.0 / 2.5, rel=1e-13)
        assert Pn[0, 0] == pytest.approx(2.0 * 0.5 / 2.5, rel=1e-13)

    def test_gain_matches_joseph_oracle(self):
        # From xhat = 0 with y = 1 the updated estimate is the gain itself;
        # the covariance is the update kernel's, bit for bit.
        P, c, r = np.eye(3), C_MIX[0], 1e-2
        xn, Pn = update_estimate(np.zeros(3), P, 1.0, c, r)
        np.testing.assert_allclose(xn, (P @ c) / (c @ P @ c + r), rtol=1e-13)
        np.testing.assert_array_equal(Pn, kalman._update(P, c, r)[0])

    def test_exact_observation_is_ignored_when_predicted(self):
        # Innovation zero -> estimate unchanged, covariance still shrinks.
        x = np.array([1.0, 2.0, 3.0])
        c = C_MIX[0]
        xn, Pn = update_estimate(x, np.eye(3), float(c @ x), c, 1e-2)
        np.testing.assert_allclose(xn, x, rtol=1e-13)
        assert np.trace(Pn) < 3.0

    @pytest.mark.parametrize("S", range(1, 7))
    def test_matches_the_two_pass_update(self, S):
        # Posterior and gain share one Pc and one e; the bits are those of
        # the update followed by a second P @ c and c @ Pc for the gain.
        rng = np.random.default_rng(3000 + S)
        model, P = random_plant(rng, S)
        for n in range(4):
            x, y = rng.normal(size=S), float(rng.normal())
            c, r = model.C[n], float(model.R[n, n])
            Pc = P @ c
            gain = Pc / float(c @ Pc + r)
            want_x = x + gain * (y - float(c @ x))
            got_x, got_P = update_estimate(x, P, y, c, r)
            assert got_x.tobytes() == want_x.tobytes()
            assert got_P.tobytes() == reference_update(P, c, r).tobytes()

    def test_huge_noise_limit(self):
        x = np.array([1.0, 2.0, 3.0])
        c = np.array([1.0, 0.0, 0.0])
        xn, Pn = update_estimate(x, np.eye(3), 100.0, c, 1e12)
        np.testing.assert_allclose(xn, x, atol=1e-9)
        np.testing.assert_allclose(Pn, np.eye(3), atol=1e-10)
