"""Tests of the plant's length operators through their one checked entry,
``SystemModel``: ``discretize`` (Phi and Qd) and ``input_lambda`` (Lambda),
on models built by ``plant(A, Q, B)``, with independent oracles: Taylor
series and mpmath for the matrix exponential, adaptive quadrature for the
input and noise integrals, closed forms for scalar, diagonal and invertible
special cases, and the semigroup and composition identities.  The model
checks A, B and Q; ``test_model.py`` tests those checks.  The exponential
kernel ``dynamics._expm`` is also tested on its own, against mpmath and
against ``scipy.linalg.expm``, which it replaced, and ``import ospkit``
is checked to load no scipy."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import ospkit
from ospkit import DomainError, OrderingError, dynamics

from conftest import A3, B3, Q3, T3, mp_noise_cov, mp_phi, plant, random_stable_system


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
    return plant(A, Q).discretize(d)[0]


def qd_of(A, Q, d):
    """Qd of ``discretize`` over length d."""
    return plant(A, Q).discretize(d)[1]


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


EPS = np.finfo(float).eps


def expm_error(got, X, dps=50):
    """1-norm relative error of ``got`` against e^X, both taken in mpmath at
    ``dps`` digits, so the rounding of e^X to float counts as error."""
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(X.tolist()))
        return float(mpmath.mnorm(mpmath.matrix(got.tolist()) - E, 1) / mpmath.mnorm(E, 1))


def norm1(X):
    return float(np.abs(X).sum(0).max())


class TestExpm:
    """``dynamics._expm(X, norm)``, scaling and squaring over the Pade
    approximants of Higham 2005, on its own."""

    # theta_3, theta_5, theta_7, theta_9 and theta_13 of Higham 2005 are the
    # largest norms each Pade order takes unscaled; 1e-4 is deep in the
    # [3/3] range, and 20 to 1000 need 2 to 8 squarings.
    @pytest.mark.parametrize("norm", [
        1e-4, 1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
        2.097847961257068, 5.371920351148152, 20.0, 200.0, 1e3,
    ])
    def test_against_mpmath(self, norm):
        # n = 2..8.  Shifting each matrix so that its rightmost eigenvalue is
        # on the imaginary axis keeps e^X of order one at every norm, so the
        # relative error stays meaningful.  scipy.linalg.expm (Al-Mohy and
        # Higham 2009) squares less often on some inputs, so the bound is
        # its worst error on the same inputs, up to a factor two, not its
        # error on each one.
        rng = np.random.default_rng(int(norm * 1e4))
        ours, theirs = [], []
        for n in range(2, 9):
            G = rng.normal(size=(n, n))
            G -= np.linalg.eigvals(G).real.max() * np.eye(n)
            X = G * (norm / norm1(G))
            ours.append(expm_error(dynamics._expm(X, norm), X))
            theirs.append(expm_error(scipy.linalg.expm(X), X))
        assert max(ours) <= max(2 * max(theirs), 10 * EPS)
        if norm <= 5.371920351148152:  # unscaled: a few roundoffs
            assert max(ours) <= 10 * EPS

    def test_reference_plant_blocks_at_the_substep_cap(self):
        # The Van Loan block and the input integral's block at the longest
        # substep _discretize takes, and at the decision period, which
        # _input_integral takes unsplit.  No worse than scipy on any.
        aug, norm_inf, _ = dynamics._van_loan(A3, Q3)
        inp = np.zeros((6, 6))
        inp[:3, :3] = A3
        inp[:3, 3:] = np.eye(3)
        for block in (aug, inp):
            for h in (dynamics._VAN_LOAN_MAX_SCALE / norm_inf, T3):
                X = block * h
                err = expm_error(dynamics._expm(X, norm1(X)), X)
                assert err <= expm_error(scipy.linalg.expm(X), X)

    def test_zero_is_exactly_identity(self):
        for n in range(1, 9):
            E = dynamics._expm(np.zeros((n, n)), 0.0)
            np.testing.assert_array_equal(E, np.eye(n))
            E[0, 0] = 7.0  # the caller's to write into
            np.testing.assert_array_equal(dynamics._expm(np.zeros((n, n)), 0.0), np.eye(n))

    @pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 4.0, 50.0])
    def test_does_not_write_into_argument(self, norm):
        X = np.random.default_rng(3).normal(size=(6, 6))
        X *= norm / norm1(X)
        before = X.copy()
        dynamics._expm(X, norm)
        assert X.tobytes() == before.tobytes()


def test_import_loads_no_scipy():
    # A fresh interpreter, so that no test has imported scipy first.
    code = "import sys, ospkit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(ospkit.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


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
            plant(A3, Q3).discretize(0.5 - 1.0)


class TestDiscretize:
    def test_against_mpmath(self):
        # Every entry, zeros included, over lengths of 1 to 25 substeps.
        # scipy.linalg.expm(A3 * d) is off by up to 5.4e-12 on these lengths.
        rng = np.random.default_rng(41)
        lengths = 0.05 - rng.uniform(0.0, 0.05, size=200)
        model = plant(A3, Q3)
        for i, d in enumerate(lengths):
            Phi, Qd = model.discretize(float(d))
            np.testing.assert_allclose(Phi, mp_phi(A3, d), rtol=1e-12, atol=0)
            if i % 10 == 0:
                np.testing.assert_allclose(Qd, mp_noise_cov(A3, Q3, d), rtol=1e-12, atol=0)

    def test_zero_length_is_exact(self):
        Phi, Qd = plant(A3, Q3).discretize(0.0)
        np.testing.assert_array_equal(Phi, np.eye(3))
        np.testing.assert_array_equal(Qd, np.zeros((3, 3)))

    def test_rejects_negative_length(self):
        with pytest.raises(OrderingError):
            plant(A3, Q3).discretize(-1e-3)


class TestInputIntegral:
    def test_empty_hold_interval(self):
        got = plant(A3, Q3, B3).input_lambda(0.0)
        np.testing.assert_array_equal(got, np.zeros((3, 1)))

    def test_scalar_closed_form(self):
        # int_0^d e^{a tau} b dtau = (b/a) (e^{a d} - 1).
        a, b, d = -3.0, 2.0, 0.3
        got = plant([[a]], [[0.0]], [[b]]).input_lambda(d)
        want = (b / a) * (np.exp(a * d) - 1.0)
        np.testing.assert_allclose(got, [[want]], rtol=1e-12)

    def test_singular_A(self):
        # Integrator chain: A = 0 gives exactly d * B.
        A = np.zeros((2, 2))
        B = np.array([[1.0], [3.0]])
        got = plant(A, np.zeros((2, 2)), B).input_lambda(0.25)
        np.testing.assert_allclose(got, 0.25 * B, rtol=1e-13)

    def test_against_quadrature(self):
        got = plant(A3, Q3, B3).input_lambda(0.003)
        want = input_integral_quadrature(A3, B3, 0.003)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_invertible_closed_form(self):
        # A^{-1} (e^{A d} - I) B for invertible A.
        rng = np.random.default_rng(3)
        A, Q = random_stable_system(rng, 4)
        B = rng.normal(size=(4, 2))
        d = 0.4
        want = np.linalg.solve(A, (scipy.linalg.expm(A * d) - np.eye(4)) @ B)
        got = plant(A, Q, B).input_lambda(d)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_rejects_bad_ordering(self):
        with pytest.raises(OrderingError):
            plant(A3, Q3, B3).input_lambda(0.5 - 0.6)


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
            model = plant(A, Q)
            F, Q_ut = model.discretize(t - u)
            lhs = model.discretize(t - s)[1]
            rhs = F @ model.discretize(u - s)[1] @ F.T + Q_ut
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-13)


    def test_compose_adds_lengths(self):
        # _compose of the pairs over a and b is the pair over a + b to
        # rounding, for stiff and random plants alike.
        rng = np.random.default_rng(11)
        systems = [(A3, Q3)] + [random_stable_system(rng, int(rng.integers(1, 7))) for _ in range(20)]
        for A, Q in systems:
            model = plant(A, Q)
            a, b = rng.uniform(0.0, 0.01, size=2)
            Phi, Qd = dynamics._compose(model.discretize(a), model.discretize(b))
            want_Phi, want_Qd = model.discretize(a + b)
            np.testing.assert_allclose(Phi, want_Phi, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(Qd, want_Qd, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("s, t", [(0.0, np.inf), (0.0, np.nan), (np.inf, np.inf), (np.nan, 0.0)])
@pytest.mark.parametrize(
    "op",
    [
        lambda d: plant(A3, Q3, B3).input_lambda(d),
        lambda d: plant(A3, Q3).discretize(d),
    ],
    ids=["input_integral", "discretize"],
)
def test_rejects_nonfinite_endpoints(op, s, t):
    # Callers pass the length t - s; a non-finite endpoint makes it non-finite.
    with pytest.raises(DomainError):
        op(t - s)
