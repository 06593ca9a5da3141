import warnings

import numpy as np
import pytest

from tsirelson import chained, chsh, classical, gisin, lhv_bound, new_inequality, solve
from tsirelson.errors import EmptyMatrix, NonFiniteEntry, TooLarge
from tsirelson.inequality import CorrelationInequality

from oracles import chunked_enumeration, first_max_lhv, gisin_classical_bound


def _assert_matches_reference(c, reference=first_max_lhv):
    bound = lhv_bound(new_inequality("c", c))
    val, x, y = reference(c)
    assert bound.value == val
    np.testing.assert_array_equal(bound.witness_x, x)
    np.testing.assert_array_equal(bound.witness_y, y)


@pytest.mark.parametrize("n", range(2, 25))
def test_chained_classical_bound(n):
    # from 14 settings the scan runs in 8-bit column runs
    ineq = chained(n)
    bound = lhv_bound(ineq)
    assert bound.value == 2 * n - 2
    assert float(bound.witness_x @ ineq.coefficients @ bound.witness_y) == bound.value


def test_gisin_classical_bound():
    # Gisin's ceil(n^2 / 2), stated without proof, against the exact enumeration
    for n in range(1, 23):
        assert lhv_bound(gisin(n)).value == gisin_classical_bound(n), n


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


def test_matches_first_max_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(60):
        k, n = rng.integers(1, 11, 2)
        c = rng.integers(-3, 4, (k, n)).astype(float)
        _assert_matches_reference(c)
        _assert_matches_reference(c.T)
    for n in range(2, 17):
        # above a dozen settings the chunked half-scan, itself pinned to the
        # one-at-a-time loop, stands in for it: same values and witnesses
        reference = first_max_lhv if n <= 12 else chunked_enumeration
        _assert_matches_reference(gisin(n).coefficients, reference)
        _assert_matches_reference(chained(n).coefficients, reference)
    _assert_matches_reference([[1e308, 1.0], [1.0, -1.0]])
    # the reference overflows to inf where lhv_bound refuses to report
    with np.errstate(over="ignore"):
        assert first_max_lhv([[1e308, 1e308], [1.0, -1.0]])[0] == np.inf


@pytest.mark.parametrize("shape", [
    (11, 11), (12, 12), (13, 13), (14, 14), (17, 17), (18, 18), (20, 20),
    (13, 16), (16, 13), (17, 19), (19, 17), (2, 2000), (2000, 2), (8, 500), (500, 8),
    (14, 300), (300, 14),
], ids=lambda s: f"{s[0]}x{s[1]}")
def test_matches_chunked_enumeration(shape):
    # above a dozen settings the chunked half-scan stands in for the one-at-a-time loop
    rng = np.random.default_rng(list(shape))
    _assert_matches_reference(rng.integers(-3, 4, shape).astype(float), chunked_enumeration)
    _assert_matches_reference(rng.integers(-1, 2, shape).astype(float), chunked_enumeration)


@pytest.mark.parametrize("n", [17, 18, 20])
def test_tied_families_match_chunked_enumeration(n):
    _assert_matches_reference(gisin(n).coefficients, chunked_enumeration)
    _assert_matches_reference(chained(n).coefficients, chunked_enumeration)


@pytest.mark.parametrize("shape", [(12, 12), (14, 14), (16, 16), (17, 17), (13, 16), (19, 17)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_gaussian_coefficients_match_chunked_enumeration(shape):
    # sums are taken in another order, so agreement is to a few ulp, not exact
    c = np.random.default_rng([7, *shape]).standard_normal(shape)
    bound = lhv_bound(new_inequality("gauss", c))
    tol = 4 * np.spacing(np.abs(c).sum())
    assert abs(bound.value - chunked_enumeration(c)[0]) <= tol
    assert abs(float(bound.witness_x @ c @ bound.witness_y) - bound.value) <= tol


def test_overflow_in_high_bits_or_later_block():
    # 16 x 16: rows 13-15 are only in the high sums, and x_15 = +1 always
    high = np.ones((16, 16))
    high[13:, 4] = 1e308
    # 17 x 17: the two huge entries cancel until x_15 = -1, in the second block
    later = np.ones((17, 17))
    later[15, 4], later[16, 4] = -1e308, 1e308
    for c in (high, later, high.T, later.T):
        assert not np.isfinite(chunked_enumeration(c)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEntry):
                lhv_bound(new_inequality("overflow", c))


def _ones_and_one(total):
    """12 x 12 ones and one large entry, sum |c| = total."""
    c = np.ones((12, 12))
    c[0, 5] = total - 143
    return c


def _block_with_column_norms(norms, k=14):
    """k x len(norms) non-negative integers with these column sums."""
    q, r = np.divmod(norms, k)
    return (q + (np.arange(k)[:, None] < r)).astype(float)


@pytest.mark.parametrize("c, dtype, runs", [
    (_ones_and_one(2**15 - 1), np.int16, None),
    (_ones_and_one(2**15), np.int32, None),
    (_ones_and_one(2**31 - 1), np.int32, None),
    (_ones_and_one(2**31), np.float64, None),
    # 14 settings and every column at most 127: 8-bit runs of column norm sum <= 255
    (_block_with_column_norms([127, 127, 1] + [0] * 11), np.int16, [(0, 14)]),
    (_block_with_column_norms([127, 127, 2] + [0] * 11), np.int16, [(0, 2), (2, 14)]),
    (_block_with_column_norms([0, 127, 0, 0, 127, 0, 1] + [0] * 7), np.int16, [(0, 14)]),
    (np.zeros((14, 14)), np.int16, [(0, 14)]),
    (_block_with_column_norms([128, 1] + [0] * 12), np.int16, None),
    # sum |c| = 38100 needs int32 scores, while each column fits in int8
    (_block_with_column_norms([127] * 300), np.int32, [(t, t + 2) for t in range(0, 300, 2)]),
], ids=["32767-int16", "32768-int32", "2147483647-int32", "2147483648-float64", "run-255",
        "run-256", "zero-columns", "zero", "column-128", "int32-runs"])
def test_integer_scan_at_dtype_thresholds(c, dtype, runs, monkeypatch):
    # integer overflow wraps silently, so the best score sits exactly on each
    # threshold: with no negative entry, all signs +1 score sum |c|, and each
    # column's partial sums reach its norm.  runs is None where the scan
    # takes the one-column path
    assert classical._score_dtype(c, np.abs(c).sum(axis=0)) == dtype
    seen, runs_of = [], classical._runs

    def spy(norms):
        seen.append(list(runs_of(norms)))
        return seen[-1]

    monkeypatch.setattr(classical, "_runs", spy)
    assert lhv_bound(new_inequality("edge", c)).value == np.abs(c).sum()
    assert seen == ([runs] if runs else [])
    for m in (c, c.T):
        _assert_matches_reference(m, chunked_enumeration)
        _assert_matches_reference(m)


def test_huge_finite_bound_is_reported():
    # integers times 2^1010 keep every sum exact, with sum |c| below 2^1020
    rng = np.random.default_rng(37)
    for shape in [(16, 16), (17, 17), (13, 18), (18, 13)]:
        c = rng.integers(-3, 4, shape) * 2.0**1010
        bound = lhv_bound(new_inequality("huge", c))
        assert np.isfinite(bound.value) and bound.value > 2.0**1015
        assert float(bound.witness_x @ c @ bound.witness_y) == bound.value
        _assert_matches_reference(c, chunked_enumeration)


def test_witnesses_are_float_signs():
    bound = lhv_bound(gisin(5))
    assert bound.witness_x.dtype == bound.witness_y.dtype == np.float64
    assert set(bound.witness_x) | set(bound.witness_y) <= {-1.0, 1.0}


def test_hand_built_block_is_checked():
    # CorrelationInequality does not check its block; lhv_bound does, as
    # new_inequality does.  The scan raised numpy's "negative shift count" on
    # an empty side, "not enough values to unpack" on a flat block, and
    # NonFiniteEntry "classical bound overflows" on a NaN
    for shape in [(0, 2), (2, 0), (3,)]:
        with pytest.raises(EmptyMatrix):
            lhv_bound(CorrelationInequality("bad", np.zeros(shape)))
    with pytest.raises(NonFiniteEntry, match="coefficient matrix"):
        lhv_bound(CorrelationInequality("nan", np.array([[1.0, np.nan]])))


def test_too_large():
    c = np.ones((31, 31))
    with pytest.raises(TooLarge):
        lhv_bound(new_inequality("big", c))
