import numpy as np
import pytest

from tsirelson import chained, chsh, gisin, lhv_bound, new_inequality, solve
from tsirelson.errors import NonFiniteEntry, TooLarge


@pytest.mark.parametrize("n", range(2, 11))
def test_chained_classical_bound(n):
    bound = lhv_bound(chained(n))
    assert bound.value == 2 * n - 2


def test_chsh_classical_bound():
    bound = lhv_bound(chsh())
    assert bound.value == 2.0


def test_single_entry():
    bound = lhv_bound(new_inequality("one", [[1]]))
    assert bound.value == 1.0
    np.testing.assert_array_equal(bound.witness_x, [1])
    np.testing.assert_array_equal(bound.witness_y, [1])


def test_witness_consistency():
    rng = np.random.default_rng(13)
    for k in range(25):
        na, nb = rng.integers(1, 6), rng.integers(1, 6)
        c = rng.integers(-2, 3, (na, nb)).astype(float)
        bound = lhv_bound(new_inequality(f"w{k}", c))
        direct = float(bound.witness_x @ c @ bound.witness_y)
        assert direct == bound.value


def test_negation_symmetry():
    rng = np.random.default_rng(19)
    for k in range(15):
        c = rng.integers(-1, 2, (3, 4)).astype(float)
        if not c.any():
            c[0, 0] = 1.0
        a = lhv_bound(new_inequality("pos", c))
        b = lhv_bound(new_inequality("neg", -c))
        assert a.value == b.value


def test_rectangular_swaps_smaller_side():
    # 5 x 2: Bob's side is enumerated, witnesses still line up
    rng = np.random.default_rng(23)
    c = rng.integers(-1, 2, (5, 2)).astype(float)
    bound = lhv_bound(new_inequality("rect", c))
    assert bound.witness_x.shape == (5,)
    assert bound.witness_y.shape == (2,)
    assert float(bound.witness_x @ c @ bound.witness_y) == bound.value
    # exhaustive cross-check over both sides
    best = -np.inf
    for xb in np.ndindex(2, 2, 2, 2, 2):
        for yb in np.ndindex(2, 2):
            x = 2 * np.array(xb) - 1
            y = 2 * np.array(yb) - 1
            best = max(best, float(np.sum(c * np.outer(x, y))))
    assert bound.value == best


def test_real_coefficients():
    c = [[0.5, -1.25], [0.75, 0.5]]
    bound = lhv_bound(new_inequality("real", c))
    assert bound.value == pytest.approx(
        float(bound.witness_x @ np.array(c) @ bound.witness_y), abs=1e-12
    )
    assert bound.value == pytest.approx(2.0, abs=1e-12)


def test_dominated_by_quantum_bound():
    for ineq in (chained(3), gisin(3), chsh()):
        report = solve(ineq)
        assert lhv_bound(ineq).value <= report.dual.certified_bound + 1e-8


def test_huge_coefficients():
    # an int64 cast of 1e308 used to give 2^63 and a wrong witness
    c = np.array([[1e308, 1.0], [1.0, -1.0]])
    bound = lhv_bound(new_inequality("big", c))
    assert bound.value == 1e308
    assert float(bound.witness_x @ c @ bound.witness_y) == bound.value
    with pytest.raises(NonFiniteEntry):
        lhv_bound(new_inequality("huge", [[1e308, 1e308], [1.0, -1.0]]))


def test_too_large():
    c = np.ones((31, 31))
    with pytest.raises(TooLarge):
        lhv_bound(new_inequality("big", c))
