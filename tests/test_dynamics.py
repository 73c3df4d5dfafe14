"""Tests of the length operators ``dynamics.discretize`` (Phi and Qd) and
``dynamics.input_integral`` (Lambda) with independent oracles: Taylor
series and mpmath for the matrix exponential, adaptive quadrature for the
input and noise integrals, closed forms for scalar, diagonal and invertible
special cases, and the semigroup and composition identities."""
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


def input_integral_quadrature(A, B, d):
    # Constant input held over [0, d], evaluated at d: int_0^d e^{A(d-sig)} B dsig.
    def integrand(sig):
        return scipy.linalg.expm(A * (d - sig)) @ B

    val, _ = scipy.integrate.quad_vec(integrand, 0.0, d, epsabs=1e-14)
    return val


def phi_of(A, Q, d):
    """Phi of ``discretize`` over length d."""
    return dynamics.discretize(A, Q, d)[0]


def qd_of(A, Q, d):
    """Qd of ``discretize`` over length d."""
    return dynamics.discretize(A, Q, d)[1]


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(phi_of(np.zeros((3, 3)), Q3, 1.7), np.eye(3))

    def test_diagonal_closed_form(self):
        D = np.diag([-1.0, 2.5, 0.0])
        got = phi_of(D, Q3, 0.3)
        np.testing.assert_allclose(got, np.diag(np.exp(0.3 * np.diag(D))), rtol=1e-14)

    def test_against_taylor_series(self):
        # Stiff plant needs a small step for the series to be well conditioned.
        for t in (1e-4, 1e-3):
            got = phi_of(A3, Q3, t)
            want = expm_taylor(A3 * t)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_semigroup_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A, Q = random_stable_system(rng, n)
            s, u = np.sort(rng.uniform(0.0, 0.5, size=2))
            full = phi_of(A, Q, s + u)
            split = phi_of(A, Q, u) @ phi_of(A, Q, s)
            np.testing.assert_allclose(full, split, rtol=1e-9, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            dynamics.discretize(np.zeros((2, 3)), np.zeros((2, 2)), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            dynamics.discretize(np.array([[np.nan]]), np.zeros((1, 1)), 1.0)


class TestPhi:
    def test_identity_at_equal_times(self):
        # Exactly I for any plant, not only the reference one.
        rng = np.random.default_rng(12)
        for A, Q in [(A3, Q3)] + [random_stable_system(rng, n) for n in range(1, 7)]:
            np.testing.assert_array_equal(phi_of(A, Q, 0.0), np.eye(A.shape[0]))

    def test_scalar_closed_form(self):
        a = -2.0
        got = phi_of(np.array([[a]]), np.array([[0.3]]), 0.6 - 0.1)
        np.testing.assert_allclose(got, [[np.exp(a * 0.5)]], rtol=1e-14)

    def test_rejects_reversed_interval(self):
        # A caller's t - s for s = 1.0 > t = 0.5.
        with pytest.raises(OrderingError):
            dynamics.discretize(A3, Q3, 0.5 - 1.0)


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

    def test_rejects_negative_length(self):
        with pytest.raises(OrderingError):
            dynamics.discretize(A3, Q3, -1e-3)


class TestInputIntegral:
    def test_empty_hold_interval(self):
        got = dynamics.input_integral(A3, B3, 0.0)
        np.testing.assert_array_equal(got, np.zeros((3, 1)))

    def test_scalar_closed_form(self):
        # int_0^d e^{a tau} b dtau = (b/a) (e^{a d} - 1).
        a, b, d = -3.0, 2.0, 0.3
        got = dynamics.input_integral(np.array([[a]]), np.array([[b]]), d)
        want = (b / a) * (np.exp(a * d) - 1.0)
        np.testing.assert_allclose(got, [[want]], rtol=1e-12)

    def test_singular_A(self):
        # Integrator chain: A = 0 gives exactly d * B.
        A = np.zeros((2, 2))
        B = np.array([[1.0], [3.0]])
        got = dynamics.input_integral(A, B, 0.25)
        np.testing.assert_allclose(got, 0.25 * B, rtol=1e-13)

    def test_against_quadrature(self):
        got = dynamics.input_integral(A3, B3, 0.003)
        want = input_integral_quadrature(A3, B3, 0.003)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_invertible_closed_form(self):
        # A^{-1} (e^{A d} - I) B for invertible A.
        rng = np.random.default_rng(3)
        A, _ = random_stable_system(rng, 4)
        B = rng.normal(size=(4, 2))
        d = 0.4
        want = np.linalg.solve(A, (scipy.linalg.expm(A * d) - np.eye(4)) @ B)
        got = dynamics.input_integral(A, B, d)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_rejects_bad_ordering(self):
        with pytest.raises(OrderingError):
            dynamics.input_integral(A3, B3, 0.5 - 0.6)


class TestNoiseCov:
    def test_zero_interval(self):
        # Exactly zeros for any plant, not only the reference one.
        rng = np.random.default_rng(13)
        for A, Q in [(A3, Q3)] + [random_stable_system(rng, n) for n in range(1, 7)]:
            np.testing.assert_array_equal(qd_of(A, Q, 0.0), np.zeros_like(Q))

    def test_scalar_integrator(self):
        # a = 0 gives exactly q * d.
        got = qd_of(np.zeros((1, 1)), np.array([[0.5]]), 2.0)
        np.testing.assert_allclose(got, [[1.0]], rtol=1e-13)

    def test_scalar_closed_form(self):
        a, q, dt = -2.0, 0.3, 0.8
        got = qd_of(np.array([[a]]), np.array([[q]]), dt)
        want = q * (np.exp(2 * a * dt) - 1.0) / (2 * a)
        np.testing.assert_allclose(got, [[want]], rtol=1e-12)

    @pytest.mark.parametrize("dt", [0.01, 0.06, 0.5, 2.5])
    def test_stiff_plant_against_quadrature(self, dt):
        got = qd_of(A3, Q3, dt)
        want = noise_cov_quadrature(A3, Q3, dt)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-15)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A, Q = random_stable_system(rng, n)
            got = qd_of(A, Q, float(rng.uniform(0.01, 1.0)))
            np.testing.assert_array_equal(got, got.T)
            assert np.linalg.eigvalsh(got).min() >= -1e-12

    def test_composition_identity(self):
        # Qd(t - s) = Phi(t - u) Qd(u - s) Phi(t - u)^T + Qd(t - u).
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A, Q = random_stable_system(rng, n)
            s, u, t = np.sort(rng.uniform(0.0, 1.0, size=3))
            F, Q_ut = dynamics.discretize(A, Q, t - u)
            lhs = qd_of(A, Q, t - s)
            rhs = F @ qd_of(A, Q, u - s) @ F.T + Q_ut
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-13)

    def test_rejects_asymmetric_Q(self):
        with pytest.raises((DomainError, DimensionError)):
            dynamics.discretize(A3, np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]), 0.1)


@pytest.mark.parametrize("s, t", [(0.0, np.inf), (0.0, np.nan), (np.inf, np.inf), (np.nan, 0.0)])
@pytest.mark.parametrize(
    "op",
    [
        lambda d: dynamics.input_integral(A3, B3, d),
        lambda d: dynamics.discretize(A3, Q3, d),
    ],
    ids=["input_integral", "discretize"],
)
def test_rejects_nonfinite_endpoints(op, s, t):
    # Callers pass the length t - s; a non-finite endpoint makes it non-finite.
    with pytest.raises(DomainError):
        op(t - s)
