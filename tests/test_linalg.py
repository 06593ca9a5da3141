import numpy as np
import pytest

from tsirelson import build_objective, chained, chsh
from tsirelson.analytic import chained_dual_lambda, chained_primal_vectors
from tsirelson.errors import LengthMismatch, NonFiniteEntry, NotPSD
from tsirelson.linalg import (
    gram_from_vectors,
    min_eigenvalue,
    sym_eigen,
    symmetrize,
    vectors_from_gram,
)


def test_sym_eigen_identity():
    spec = sym_eigen(np.eye(3))
    np.testing.assert_allclose(spec.eigenvalues, [1, 1, 1])


def test_sym_eigen_swap():
    spec = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [-1, 1], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_sym_eigen_chained_top(n):
    spec = sym_eigen(build_objective(chained(n)))
    assert abs(spec.eigenvalues[-1] - 2 * np.cos(np.pi / (2 * n))) <= 1e-9


def test_sym_eigen_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5, 12):
        s = symmetrize(rng.standard_normal((dim, dim)))
        spec = sym_eigen(s)
        q, vals = spec.eigenvectors, spec.eigenvalues
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(q.T @ q, np.eye(dim), atol=1e-10)
        recon = q @ np.diag(vals) @ q.T
        assert np.linalg.norm(recon - s) <= 1e-9 * max(1.0, np.linalg.norm(s))
        # residual of each eigenpair
        for k in range(dim):
            r = np.linalg.norm(s @ q[:, k] - vals[k] * q[:, k])
            assert r <= 1e-10 * max(1.0, np.linalg.norm(s))


def test_block_spectrum_plus_minus_pairs():
    # square off-diagonal block matrices have spectra {+-sigma}
    rng = np.random.default_rng(11)
    for n in (2, 4):
        a = rng.standard_normal((n, n))
        w = np.zeros((2 * n, 2 * n))
        w[:n, n:] = a.T
        w[n:, :n] = a
        vals = sym_eigen(w).eigenvalues
        np.testing.assert_allclose(vals, -vals[::-1], atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_min_eigenvalue_dual_slack(n):
    w = build_objective(chained(n))
    slack = np.diag(chained_dual_lambda(n)) - w / 2.0
    assert abs(min_eigenvalue(slack)) <= 1e-9


def test_min_eigenvalue_simple():
    assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_infeasible_lambda():
    # 0.5 < cos(pi/6): the certificate matrix dips negative
    w = build_objective(chained(3))
    slack = np.diag(np.full(6, 0.5)) - w / 2.0
    mu = min_eigenvalue(slack)
    assert mu == pytest.approx(0.5 - np.cos(np.pi / 6), abs=1e-9)


def test_min_eigenvalue_matches_jacobi_oracle():
    # sizes 1..64, weighted toward small ones: Jacobi costs ~dim^3 Python steps
    rng = np.random.default_rng(41)
    for dim in np.geomspace(1, 64, 20).round().astype(int):
        s = symmetrize(rng.standard_normal((dim, dim)))
        expected = sym_eigen(s).eigenvalues[0]
        assert abs(min_eigenvalue(s) - expected) <= 1e-10 * np.linalg.norm(s)


def test_min_eigenvalue_symmetrizes_its_input():
    # LAPACK reads one triangle; without symmetrizing, the answer would differ
    a = np.array([[1.0, 3.0, 0.0], [-1.0, 2.0, 4.0], [0.0, 0.0, -1.0]])
    expected = sym_eigen(a).eigenvalues[0]
    assert abs(np.linalg.eigvalsh(a)[0] - expected) > 0.1
    assert abs(min_eigenvalue(a) - expected) <= 1e-10 * np.linalg.norm(a)


def test_min_eigenvalue_huge_finite_entry():
    # symmetrizing as (M + M^T)/2 overflowed on entries above ~9e307
    s = np.diag([1e308, 0.0, 0.0, 0.0]) - build_objective(chsh()) / 2.0
    assert min_eigenvalue(s) == pytest.approx(-1 / np.sqrt(2), abs=1e-12)
    a = np.random.default_rng(3).standard_normal((5, 5))
    np.testing.assert_array_equal(symmetrize(a), (a + a.T) / 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_min_eigenvalue_rejects_non_finite(bad):
    s = np.eye(3)
    s[1, 1] = bad
    with pytest.raises(NonFiniteEntry):
        min_eigenvalue(s)


def test_gram_from_vectors_basis():
    g = gram_from_vectors([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    np.testing.assert_allclose(g, np.eye(2))


def test_gram_from_vectors_chained_angles():
    xs, ys = chained_primal_vectors(3)
    g = gram_from_vectors(list(xs) + list(ys))
    c = np.cos(np.pi / 6)
    for k in range(3):
        assert g[k, 3 + k] == pytest.approx(c, abs=1e-12)
    for k in range(2):
        assert g[k + 1, 3 + k] == pytest.approx(c, abs=1e-12)
    assert g[0, 5] == pytest.approx(-c, abs=1e-12)


def test_gram_from_vectors_length_mismatch():
    with pytest.raises(LengthMismatch):
        gram_from_vectors([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
    with pytest.raises(LengthMismatch):
        gram_from_vectors([])


def test_vectors_from_gram_identity():
    vs = vectors_from_gram(np.eye(4))
    g = gram_from_vectors(vs)
    np.testing.assert_allclose(g, np.eye(4), atol=1e-10)


def test_vectors_from_gram_chsh_optimum():
    a = 1.0 / np.sqrt(2.0)
    g = np.array(
        [[1, 0, a, a], [0, 1, a, -a], [a, a, 1, 0], [a, -a, 0, 1]], dtype=float
    )
    vs = vectors_from_gram(g)
    for v in vs:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(gram_from_vectors(vs), g, atol=1e-8)


def test_vectors_from_gram_rejects_indefinite():
    g = np.diag([1.0, 1.0, -0.1])
    with pytest.raises(NotPSD):
        vectors_from_gram(g, tol=1e-9)


def test_vectors_from_gram_clips_tiny_negative():
    g = np.diag([1.0, -1e-12])
    vs = vectors_from_gram(g, tol=1e-9)
    np.testing.assert_allclose(gram_from_vectors(vs), np.diag([1.0, 0.0]), atol=1e-8)


def test_gram_roundtrip_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m, length = rng.integers(2, 7), rng.integers(2, 7)
        vecs = rng.standard_normal((m, length))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        g = gram_from_vectors(list(vecs))
        back = vectors_from_gram(g)
        np.testing.assert_allclose(gram_from_vectors(back), g, atol=1e-8)
