import math

import numpy as np
import pytest

from tsirelson import build_objective, chained, chsh
from tsirelson.analytic import chained_A_spectrum, chained_quantum_bound
from tsirelson.errors import InvalidSize
from tsirelson.linalg import min_eigenvalue
from tsirelson.sdp import certify

from oracles import (
    chained_classical_bound,
    chained_dual_lambda,
    chained_primal_vectors,
    chsh_known_solution,
    gram_from_vectors,
    objective_value,
)

from oracles import sym_eigen


def test_quantum_bound_values():
    assert chained_quantum_bound(2) == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert chained_quantum_bound(1) == pytest.approx(0.0, abs=1e-12)
    assert chained_quantum_bound(3) == pytest.approx(3 * np.sqrt(3), abs=1e-12)


def test_chained_n1_bound_is_exactly_zero():
    # 2n cos(pi/2n) read 2 cos(pi/2) = 1.2e-16 at n = 1, above the certified 0
    assert chained_quantum_bound(1) == 0.0
    spec = chained_A_spectrum(1)
    assert spec.w_max == 0.0 and spec.sigmas.tolist() == [0.0]


def test_chsh_bound_is_correctly_rounded():
    # the sine form 2n sin(pi(n-1)/2n) read 2.82842712474619, 1 ulp below 2 sqrt(2)
    assert chained_quantum_bound(2) == math.sqrt(8)
    assert chained_A_spectrum(2).w_max == math.sqrt(2)
    assert 2 * chained_A_spectrum(2).w_max == math.sqrt(8)


def test_chained_bound_is_the_cosine_form_within_one_ulp():
    for n in range(2, 200):
        cos_form = 2.0 * n * np.cos(np.pi / (2 * n))
        assert abs(chained_quantum_bound(n) - cos_form) <= np.spacing(cos_form)
        w_cos = 2.0 * np.cos(np.pi / (2 * n))
        assert abs(chained_A_spectrum(n).w_max - w_cos) <= np.spacing(w_cos)


def test_classical_bound_values():
    assert chained_classical_bound(2) == 2.0
    assert chained_classical_bound(1) == 0.0
    assert chained_classical_bound(5) == 8.0


def test_invalid_sizes():
    for fn in (
        chained_quantum_bound,
        chained_classical_bound,
        chained_primal_vectors,
        chained_dual_lambda,
        chained_A_spectrum,
    ):
        with pytest.raises(InvalidSize):
            fn(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_primal_vectors_terms(n):
    xs, ys = chained_primal_vectors(n)
    assert xs.shape == (n, 2 * n) and ys.shape == (n, 2 * n)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(ys, axis=1), 1.0, atol=1e-12)
    c = np.cos(np.pi / (2 * n))
    for k in range(n):
        assert np.dot(xs[k], ys[k]) == pytest.approx(c, abs=1e-12)
    for k in range(n - 1):
        assert np.dot(xs[k + 1], ys[k]) == pytest.approx(c, abs=1e-12)
    assert -np.dot(xs[0], ys[n - 1]) == pytest.approx(c, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
def test_primal_vectors_objective(n):
    xs, ys = chained_primal_vectors(n)
    val = objective_value(chained(n), xs, ys)
    assert val == pytest.approx(chained_quantum_bound(n), abs=1e-12)


def test_primal_vectors_n2_matches_known_gram():
    xs, ys = chained_primal_vectors(2)
    g = gram_from_vectors(list(xs) + list(ys))
    a = 1.0 / np.sqrt(2.0)
    # cross-block entries are 0 or +-1/sqrt(2), matching the known optimum
    cross = np.abs(g[:2, 2:])
    assert np.all((np.abs(cross - a) <= 1e-12) | (cross <= 1e-12))
    assert g[0, 2] == pytest.approx(a, abs=1e-12)
    assert -g[0, 3] == pytest.approx(a, abs=1e-12)


def test_dual_lambda_values():
    np.testing.assert_allclose(chained_dual_lambda(2), np.full(4, 1 / np.sqrt(2)))
    np.testing.assert_allclose(chained_dual_lambda(3), np.full(6, np.sqrt(3) / 2))
    np.testing.assert_allclose(chained_dual_lambda(1), np.zeros(2), atol=1e-16)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_dual_lambda_certifies(n):
    cert = certify(chained(n).coefficients, chained_dual_lambda(n))
    assert cert.feasibility_margin >= -1e-9
    assert cert.certified_bound == pytest.approx(chained_quantum_bound(n), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_spectrum_gamma_magnitudes(n):
    spec = chained_A_spectrum(n)
    s = np.arange(n)
    expected = 2.0 + 2.0 * np.cos(np.pi * (2 * s + 1) / n)
    np.testing.assert_allclose(np.abs(spec.gammas) ** 2, expected, atol=1e-12)
    np.testing.assert_allclose(spec.sigmas**2, expected, atol=1e-12)
    assert spec.w_max == pytest.approx(2 * np.cos(np.pi / (2 * n)), abs=1e-12)
    assert spec.w_max == pytest.approx(spec.sigmas.max(), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_spectrum_matches_numerical_eigensolver(n):
    spec = chained_A_spectrum(n)
    w = build_objective(chained(n))
    numeric = sym_eigen(w).eigenvalues
    expected = np.sort(np.concatenate([spec.sigmas, -spec.sigmas]))
    np.testing.assert_allclose(numeric, expected, atol=1e-9)
    assert abs(numeric[-1] - spec.w_max) <= 1e-9


@pytest.mark.parametrize("n", range(1, 17))
def test_spectrum_eigenvectors(n):
    # A u_s = gamma_s u_s for u_s = (rho^{n-1}, ..., rho^0), rho = exp(-i pi (2s+1)/n),
    # A the Bob x Alice block of W
    gammas = chained_A_spectrum(n).gammas
    rho = np.exp(-1j * np.pi * (2 * np.arange(n) + 1) / n)
    u = rho[None, :] ** np.arange(n - 1, -1, -1)[:, None]  # column s is u_s
    a = chained(n).coefficients.T
    np.testing.assert_allclose(a @ u, u * gammas[None, :], rtol=0, atol=1e-10)


def test_spectrum_n1_degenerate():
    spec = chained_A_spectrum(1)
    np.testing.assert_allclose(np.abs(spec.gammas), 0.0, atol=1e-12)
    np.testing.assert_allclose(spec.sigmas, 0.0, atol=1e-12)
    assert spec.w_max == pytest.approx(0.0, abs=1e-12)


def test_chsh_known_solution():
    g, lam = chsh_known_solution()
    w = build_objective(chsh())
    assert 0.5 * np.sum(g * w) == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert min_eigenvalue(g) >= -1e-12
    np.testing.assert_allclose(lam, np.full(4, 1 / np.sqrt(2)))
    slack = np.diag(lam) - w / 2.0
    assert abs(min_eigenvalue(slack)) <= 1e-12
    assert np.all(np.diag(g) == 1.0)


def test_classical_strictly_below_quantum():
    for n in range(2, 12):
        assert chained_classical_bound(n) < chained_quantum_bound(n)
