import numpy as np
import pytest

from tsirelson import build_objective, chained, chsh, gisin, new_inequality
from tsirelson.errors import EmptyMatrix, InvalidSize, NonFiniteEntry

from oracles import gram_from_vectors, objective_value


def test_new_inequality_chsh():
    ineq = new_inequality("chsh", [[1, 1], [1, -1]])
    assert ineq.n_alice == 2 and ineq.n_bob == 2
    np.testing.assert_array_equal(ineq.coefficients, [[1, 1], [1, -1]])


def test_new_inequality_single_and_rect():
    assert new_inequality("one", [[1]]).coefficients.shape == (1, 1)
    rect = new_inequality("rect", [[1, 0, 1]])
    assert rect.n_alice == 1 and rect.n_bob == 3


def test_new_inequality_rejects_bad_input():
    with pytest.raises(EmptyMatrix):
        new_inequality("empty", [])
    with pytest.raises(EmptyMatrix):
        new_inequality("", [[1]])
    with pytest.raises(NonFiniteEntry):
        new_inequality("nan", [[1, np.nan]])
    with pytest.raises(NonFiniteEntry):
        new_inequality("inf", [[np.inf]])


def test_chained_small():
    np.testing.assert_array_equal(chained(2).coefficients, [[1, -1], [1, 1]])
    np.testing.assert_array_equal(chained(1).coefficients, [[0]])


def test_chained_4_expanded():
    # expanding the sum: c[i][i]=1, c[i+1][i]=1, c[1][n]=-1 (1-based)
    expected = [
        [1, 0, 0, -1],
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
    ]
    np.testing.assert_array_equal(chained(4).coefficients, expected)


def test_chained_nonzero_count():
    for n in range(2, 12):
        c = chained(n).coefficients
        nz = c[c != 0]
        assert nz.size == 2 * n
        assert set(np.unique(nz)) <= {-1.0, 1.0}


def test_chained_invalid():
    with pytest.raises(InvalidSize):
        chained(0)


def test_gisin_patterns():
    np.testing.assert_array_equal(gisin(2).coefficients, [[1, 1], [1, -1]])
    np.testing.assert_array_equal(gisin(1).coefficients, [[1]])
    np.testing.assert_array_equal(
        gisin(3).coefficients, [[1, 1, 1], [1, 1, -1], [1, -1, -1]]
    )
    with pytest.raises(InvalidSize):
        gisin(0)


def test_build_objective_structure():
    for ineq in (chained(2), chained(5), gisin(3), new_inequality("rect", [[1, 0, 1]])):
        w = build_objective(ineq)
        na, nb = ineq.n_alice, ineq.n_bob
        assert w.shape == (na + nb, na + nb)
        np.testing.assert_array_equal(w, w.T)
        np.testing.assert_array_equal(w[:na, :na], 0)
        np.testing.assert_array_equal(w[na:, na:], 0)
        np.testing.assert_array_equal(w[na:, :na], ineq.coefficients.T)


def test_build_objective_single():
    w = build_objective(new_inequality("one", [[1]]))
    np.testing.assert_array_equal(w, [[0, 1], [1, 0]])


def test_chsh_objective_matches_known_matrix():
    # vector order (x1, x2, y1, y2) reproduces the standard CHSH W
    w = build_objective(chsh())
    np.testing.assert_array_equal(
        w,
        [[0, 0, 1, 1], [0, 0, 1, -1], [1, 1, 0, 0], [1, -1, 0, 0]],
    )


@pytest.mark.parametrize("ineq", [chained(2), chained(4), gisin(3), chsh()])
def test_trace_identity_random_vectors(ineq):
    # (1/2) Tr(G W) must equal the direct bilinear evaluation
    rng = np.random.default_rng(7)
    w = build_objective(ineq)
    na, nb = ineq.n_alice, ineq.n_bob
    for _ in range(5):
        vecs = rng.standard_normal((na + nb, 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        g = gram_from_vectors(list(vecs))
        lhs = 0.5 * np.sum(g * w)
        rhs = objective_value(ineq, vecs[:na], vecs[na:])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_coefficients_read_only():
    ineq = chained(3)
    with pytest.raises(ValueError):
        ineq.coefficients[0, 0] = 5.0
