"""Continuous-to-discrete operator tests with independent oracles:
Taylor series for the matrix exponential, adaptive quadrature for the input
and noise integrals, and closed forms for scalar/invertible special cases."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ospkit import DimensionError, DomainError, OrderingError, dynamics

from conftest import A3, B3, Q3, mp_noise_cov, mp_phi, random_stable_system


def expm_taylor(M, terms=60):
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
        if np.abs(term).max() < 1e-16 * max(np.abs(out).max(), 1.0):
            break
    return out


def noise_cov_quadrature(A, Q, dt):
    def integrand(u):
        E = scipy.linalg.expm(A * u)
        return E @ Q @ E.T

    val, _ = scipy.integrate.quad_vec(integrand, 0.0, dt, epsabs=1e-13, epsrel=1e-12)
    return val


def input_integral_quadrature(A, B, s, t):
    # Constant input held over [s, t], evaluated at t: int_s^t e^{A(t-sig)} B dsig.
    def integrand(sig):
        return scipy.linalg.expm(A * (t - sig)) @ B

    val, _ = scipy.integrate.quad_vec(integrand, s, t, epsabs=1e-14)
    return val


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(dynamics.phi(np.zeros((3, 3)), 0.0, 1.7), np.eye(3))

    def test_diagonal_closed_form(self):
        D = np.diag([-1.0, 2.5, 0.0])
        got = dynamics.phi(D, 0.0, 0.3)
        np.testing.assert_allclose(got, np.diag(np.exp(0.3 * np.diag(D))), rtol=1e-14)

    def test_against_taylor_series(self):
        # Stiff plant needs a small step for the series to be well conditioned.
        for t in (1e-4, 1e-3):
            got = dynamics.phi(A3, 0.0, t)
            want = expm_taylor(A3 * t)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_semigroup_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A, _ = random_stable_system(rng, n)
            s, u = np.sort(rng.uniform(0.0, 0.5, size=2))
            full = dynamics.phi(A, 0.0, s + u)
            split = dynamics.phi(A, 0.0, u) @ dynamics.phi(A, 0.0, s)
            np.testing.assert_allclose(full, split, rtol=1e-9, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            dynamics.phi(np.zeros((2, 3)), 0.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            dynamics.phi(np.array([[np.nan]]), 0.0, 1.0)


class TestPhi:
    def test_identity_at_equal_times(self):
        for s in (0.0, 0.37):
            np.testing.assert_array_equal(dynamics.phi(A3, s, s), np.eye(3))

    def test_scalar_closed_form(self):
        a = -2.0
        got = dynamics.phi(np.array([[a]]), 0.1, 0.6)
        np.testing.assert_allclose(got, [[np.exp(a * 0.5)]], rtol=1e-14)

    def test_rejects_reversed_interval(self):
        with pytest.raises(OrderingError):
            dynamics.phi(A3, 1.0, 0.5)


class TestDiscretize:
    def test_against_mpmath(self):
        # Every entry, zeros included, over lengths of 1 to 25 substeps.
        # scipy.linalg.expm(A3 * d) is off by up to 5.4e-12 on these lengths.
        rng = np.random.default_rng(41)
        lengths = 0.05 - rng.uniform(0.0, 0.05, size=200)
        for i, d in enumerate(lengths):
            Phi, Qd = dynamics.discretize(A3, Q3, float(d))
            np.testing.assert_allclose(Phi, mp_phi(A3, d), rtol=1e-12, atol=0)
            if i % 10 == 0:
                np.testing.assert_allclose(Qd, mp_noise_cov(A3, Q3, d), rtol=1e-12, atol=0)

    def test_zero_length_is_exact(self):
        Phi, Qd = dynamics.discretize(A3, Q3, 0.0)
        np.testing.assert_array_equal(Phi, np.eye(3))
        np.testing.assert_array_equal(Qd, np.zeros((3, 3)))

    def test_noise_cov_is_its_Qd(self):
        for s, t in ((0.0, 0.004), (0.3, 0.35), (1.0, 3.5)):
            np.testing.assert_array_equal(
                dynamics.noise_cov(A3, Q3, s, t), dynamics.discretize(A3, Q3, t - s)[1]
            )

    def test_rejects_negative_length(self):
        with pytest.raises(OrderingError):
            dynamics.discretize(A3, Q3, -1e-3)


class TestInputIntegral:
    def test_empty_hold_interval(self):
        got = dynamics.input_integral(A3, B3, 0.2, 0.2)
        np.testing.assert_array_equal(got, np.zeros((3, 1)))

    def test_scalar_closed_form(self):
        # int_0^{t-s} e^{a tau} b dtau = (b/a) (e^{a(t-s)} - 1).
        a, b, s, t = -3.0, 2.0, 0.1, 0.4
        got = dynamics.input_integral(np.array([[a]]), np.array([[b]]), s, t)
        want = (b / a) * (np.exp(a * (t - s)) - 1.0)
        np.testing.assert_allclose(got, [[want]], rtol=1e-12)

    def test_singular_A(self):
        # Integrator chain: A = 0 gives exactly (t - s) * B.
        A = np.zeros((2, 2))
        B = np.array([[1.0], [3.0]])
        got = dynamics.input_integral(A, B, 0.0, 0.25)
        np.testing.assert_allclose(got, 0.25 * B, rtol=1e-13)

    def test_against_quadrature(self):
        got = dynamics.input_integral(A3, B3, 0.001, 0.004)
        want = input_integral_quadrature(A3, B3, 0.001, 0.004)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_invertible_closed_form(self):
        # A^{-1} (e^{A(t-s)} - I) B for invertible A.
        rng = np.random.default_rng(3)
        A, _ = random_stable_system(rng, 4)
        B = rng.normal(size=(4, 2))
        s, t = 0.3, 0.7
        want = np.linalg.solve(A, (scipy.linalg.expm(A * (t - s)) - np.eye(4)) @ B)
        got = dynamics.input_integral(A, B, s, t)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_rejects_bad_ordering(self):
        with pytest.raises(OrderingError):
            dynamics.input_integral(A3, B3, 0.6, 0.5)


class TestNoiseCov:
    def test_zero_interval(self):
        np.testing.assert_array_equal(dynamics.noise_cov(A3, Q3, 0.4, 0.4), np.zeros((3, 3)))

    def test_scalar_integrator(self):
        # a = 0 gives exactly q * (t - s).
        got = dynamics.noise_cov(np.zeros((1, 1)), np.array([[0.5]]), 1.0, 3.0)
        np.testing.assert_allclose(got, [[1.0]], rtol=1e-13)

    def test_scalar_closed_form(self):
        a, q, dt = -2.0, 0.3, 0.8
        got = dynamics.noise_cov(np.array([[a]]), np.array([[q]]), 0.0, dt)
        want = q * (np.exp(2 * a * dt) - 1.0) / (2 * a)
        np.testing.assert_allclose(got, [[want]], rtol=1e-12)

    @pytest.mark.parametrize("dt", [0.01, 0.06, 0.5, 2.5])
    def test_stiff_plant_against_quadrature(self, dt):
        got = dynamics.noise_cov(A3, Q3, 0.0, dt)
        want = noise_cov_quadrature(A3, Q3, dt)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-15)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A, Q = random_stable_system(rng, n)
            got = dynamics.noise_cov(A, Q, 0.0, float(rng.uniform(0.01, 1.0)))
            np.testing.assert_array_equal(got, got.T)
            assert np.linalg.eigvalsh(got).min() >= -1e-12

    def test_composition_identity(self):
        # Q(s, t) = Phi(u, t) Q(s, u) Phi(u, t)^T + Q(u, t).
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A, Q = random_stable_system(rng, n)
            s, u, t = np.sort(rng.uniform(0.0, 1.0, size=3))
            F = dynamics.phi(A, u, t)
            lhs = dynamics.noise_cov(A, Q, s, t)
            rhs = F @ dynamics.noise_cov(A, Q, s, u) @ F.T + dynamics.noise_cov(A, Q, u, t)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-13)

    def test_rejects_asymmetric_Q(self):
        with pytest.raises((DomainError, DimensionError)):
            dynamics.noise_cov(A3, np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]), 0.0, 0.1)


@pytest.mark.parametrize("s, t", [(0.0, np.inf), (0.0, np.nan), (np.inf, np.inf), (np.nan, 0.0)])
@pytest.mark.parametrize(
    "op",
    [
        lambda s, t: dynamics.phi(A3, s, t),
        lambda s, t: dynamics.input_integral(A3, B3, s, t),
        lambda s, t: dynamics.noise_cov(A3, Q3, s, t),
        lambda s, t: dynamics.discretize(A3, Q3, t - s),
    ],
    ids=["phi", "input_integral", "noise_cov", "discretize"],
)
def test_rejects_nonfinite_endpoints(op, s, t):
    with pytest.raises(DomainError):
        op(s, t)
