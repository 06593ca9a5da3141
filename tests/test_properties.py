"""Property tests over small integral inequalities (entries -3..3, up to 6x6).

Examples are derandomized, so every run checks the same inputs.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tsirelson import build_objective, chained, gisin, lhv_bound, new_inequality, sdp, solve

from oracles import chunked_enumeration, exact_psd, exact_slack, first_max_lhv, lstsq_tight

KRIVINE = 1.7823  # upper bound on Grothendieck's constant

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=150)
matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.integers(-3, 3).map(float),
)


def _bound(c):
    return lhv_bound(new_inequality("c", c))


def _signs(data, n):
    return np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))


@derandomized
@given(matrices)
def test_lhv_matches_first_max_enumeration(c):
    bound = _bound(c)
    val, x, y = first_max_lhv(c)
    assert bound.value == val
    np.testing.assert_array_equal(bound.witness_x, x)
    np.testing.assert_array_equal(bound.witness_y, y)


@st.composite
def near_int16_limit(draw):
    """Integral k x n, k in 12..14 and n in 12..20, with sum |c| in about [2^14, 2^16]."""
    k, n = draw(st.integers(12, 14)), draw(st.integers(12, 20))
    c = draw(arrays(np.float64, (k, n), elements=st.integers(-3, 3).map(float)))
    if draw(st.booleans()):  # a rank-one sign pattern: the best score is sum |c|
        signs = st.sampled_from([-1.0, 1.0])
        c = np.abs(c) * draw(arrays(np.float64, (k, 1), elements=signs))
        c *= draw(arrays(np.float64, n, elements=signs))
    total = max(1, int(np.abs(c).sum()))
    return c * draw(st.integers(2**14 // total + 1, 2**16 // total))


@settings(derandomized, max_examples=40)
@given(near_int16_limit())
def test_integer_scan_matches_chunked_enumeration(c):
    # the long scan runs in int16 below sum |c| = 2^15 and in int32 above
    bound = _bound(c)
    val, x, y = chunked_enumeration(c)
    assert bound.value == val
    np.testing.assert_array_equal(bound.witness_x, x)
    np.testing.assert_array_equal(bound.witness_y, y)


@derandomized
@given(matrices)
def test_witness_attains_value(c):
    bound = _bound(c)
    assert float(bound.witness_x @ c @ bound.witness_y) == bound.value


@derandomized
@given(matrices, st.data())
def test_value_invariant_under_symmetries(c, data):
    k, n = c.shape
    rows = data.draw(st.permutations(range(k)))
    cols = data.draw(st.permutations(range(n)))
    moved = (_signs(data, k)[:, None] * c * _signs(data, n))[rows][:, cols]
    value = _bound(c).value
    assert _bound(moved).value == value
    assert _bound(c.T).value == value


@derandomized
@given(matrices, st.integers(-40, 40))
def test_value_scales_by_powers_of_two(c, e):
    assert _bound(np.ldexp(c, e)).value == np.ldexp(_bound(c).value, e)


@settings(derandomized, max_examples=100)
@given(matrices)
def test_bound_chain(c):
    report = solve(new_inequality("c", c))
    classical, primal = report.classical_bound, report.primal.value
    certified = report.dual.certified_bound
    slack = 1e-9 * max(1.0, abs(certified))
    assert classical <= primal
    assert primal <= certified + slack
    assert certified <= KRIVINE * classical + slack


@settings(derandomized, max_examples=100)
@given(matrices)
def test_solve_converges_certified(c):
    report = solve(new_inequality("c", c))
    assert report.primal.converged
    assert all(run.converged for run in report.runs)
    assert report.gap <= sdp.OPTIMAL_GAP


@settings(derandomized, max_examples=100)
@given(matrices, st.booleans())
def test_solve_reports_one_run_of_its_vectors_rank(c, classical):
    # one ascent per solve: a stalled run lifts itself, so no second run, and
    # a run's rank counts the columns of the vectors reported with it
    report = solve(new_inequality("c", c), classical=classical)
    (run,) = report.runs
    assert run.rank == report.primal.vectors.shape[1]


def _bp_rank(m):
    """The Barvinok-Pataki rank of solve's mixing run."""
    return min(m, math.isqrt(2 * m - 1) + 2)


def test_chained_iteration_count():
    # a deterministic guard on the accelerated ascent, run as solve's first
    # mixing run would be (solve takes the spectral path on chained): the
    # plain sweep took 6260 sweeps at n = 64, growing like n^2
    for n in range(2, 65):
        sol = sdp.solve_primal(chained(n).coefficients, _bp_rank(2 * n))
        assert abs(sol.value - 2 * n * np.cos(np.pi / (2 * n))) <= 1e-7
    assert sol.iterations <= 400  # n = 64


@st.composite
def tight_families(draw):
    """chained or gisin, n in 1..6, with settings permuted, signs flipped, times 1..3."""
    n = draw(st.integers(1, 6))
    c = draw(st.sampled_from([chained, gisin]))(n).coefficients
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    signs = draw(arrays(np.float64, (2, n), elements=st.sampled_from([-1.0, 1.0])))
    return (signs[0][:, None] * c * signs[1])[rows][:, cols] * draw(st.integers(1, 3))


@st.composite
def game_sums(draw):
    """Tight sums of games with one sigma_1.

    Either blocks (4/p) J_{p x rp}, each with sigma_1 = 4 sqrt(r) and aspect
    1 : r, as in [[J_4, 0], [0, 4]]; or the projector X (X^T X)^-1 X^T, a sum
    of rank-one games q q^T, onto the span of unit rows X (rarely a tight
    frame), attained by x = y = X.  On blocks the rows of K, normalized, are
    already optimal: of one norm, so the spectral path is taken, where the
    blocks have one size p, and of differing norms where their sizes differ.
    On a projector only the least-squares M gives the primal.  Settings
    permuted, signs flipped, times 1..3.
    """
    if draw(st.booleans()):
        r, size = draw(st.sampled_from([1, 2])), st.sampled_from([1, 2, 4])
        if draw(st.booleans()):
            sizes = [draw(size)] * draw(st.integers(2, 3))
        else:
            sizes = draw(st.lists(size, min_size=2, max_size=3, unique=True))
        c = np.zeros((sum(sizes), r * sum(sizes)))
        at = 0
        for p in sizes:
            c[at:at + p, r * at:r * (at + p)] = 4.0 / p
            at += p
    else:
        d = draw(st.integers(2, 3))
        x = draw(arrays(np.float64, (draw(st.integers(d + 1, 7)), d),
                        elements=st.integers(-3, 3).map(float)))
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        assume(norms.all() and np.linalg.cond(x) < 10)
        x /= norms
        c = x @ np.linalg.inv(x.T @ x) @ x.T
    na, nb = c.shape
    rows, cols = draw(st.permutations(range(na))), draw(st.permutations(range(nb)))
    data = draw(st.data())
    c = (_signs(data, na)[:, None] * c * _signs(data, nb))[rows][:, cols]
    c *= draw(st.integers(1, 3))
    return c.T if draw(st.booleans()) else c


@settings(derandomized, max_examples=120)
@given(st.one_of(matrices, tight_families(), game_sums()))
def test_spectral_path_is_a_true_optimum(c):
    # where solve takes the spectral path, its bound is not below the mixing
    # primal's value, and its primal is not below the mixing certificate
    ineq = new_inequality("c", c)
    report = solve(ineq, classical=False)
    (run,) = report.runs
    if run.method != "spectral":
        return
    c = ineq.coefficients
    sol = sdp.solve_primal(c, _bp_rank(sum(c.shape)))
    certified = sdp.certify(c, sdp.extract_dual(c, sol.vectors)).certified_bound
    scale = max(1.0, float(np.abs(c).max()))
    assert report.dual.certified_bound >= sol.value - 1e-9 * scale
    assert report.primal.value >= certified - 1e-7 * scale


def test_game_sums_take_both_paths():
    # equal-size blocks take the spectral path, so the game-sum half of
    # test_spectral_path_is_a_true_optimum asserts something; blocks of
    # differing sizes and projectors take the ascent
    methods = set()

    @settings(derandomized, max_examples=120)
    @given(game_sums())
    def record(c):
        methods.add(solve(new_inequality("c", c), classical=False).runs[0].method)

    record()
    assert methods == {"spectral", "mixing"}


@derandomized
@given(st.one_of(matrices, tight_families(), game_sums()))
def test_spectral_decision_matches_least_squares(c):
    # the test through the row norms of K takes the path only where least
    # squares for M would; a game sum it refuses goes to the ascent
    report = solve(new_inequality("c", c), classical=False)
    if report.runs[0].method == "spectral":
        assert lstsq_tight(c, _bp_rank(sum(c.shape)))


@settings(derandomized, max_examples=60)
@given(game_sums())
def test_game_sums_run_one_eigh_and_no_lstsq(c):
    # as on the chained and Gisin families (test_sdp.py): the spectral try's
    # eigh is the one eigen routine, and a game sum whose K rows differ in
    # norm is certified optimal by the ascent, exactly PSD
    calls = {"eigh": 0, "lstsq": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            routine = getattr(np.linalg, name)

            def counted(*args, _name=name, _routine=routine, **kwargs):
                calls[_name] += 1
                return _routine(*args, **kwargs)

            patch.setattr(np.linalg, name, counted)
        ineq = new_inequality("c", c)
        report = solve(ineq, classical=False)
    assert calls == {"eigh": 1, "lstsq": 0}
    assert report.certified_optimal
    assert exact_psd(exact_slack(build_objective(ineq), report.dual.lam))


def _assert_exactly_certified(w, cert):
    # diag(lambda') - W/2 is PSD with no rounding, and the bound is not below sum(lambda')
    assert exact_psd(exact_slack(w, cert.lam))
    assert Fraction(cert.certified_bound) >= sum(map(Fraction, cert.lam.tolist()))


@settings(derandomized, max_examples=60)
@given(matrices)
def test_certificates_are_exactly_psd(c):
    # m <= 12: solve's certificate (spectral, the mixing run's own proof, or
    # a shift-first one) and certify's Cholesky-first one on the mixing lambda
    ineq = new_inequality("c", c)
    w, c = build_objective(ineq), ineq.coefficients
    report = solve(ineq, classical=False)
    _assert_exactly_certified(w, report.dual)
    _assert_exactly_certified(w, sdp.certify(c, sdp.extract_dual(c, report.primal.vectors)))


@settings(derandomized, max_examples=60)
@given(matrices, st.integers(0, 8))
def test_boundary_certificates_are_exactly_psd(c, k):
    # constant lambda k ulps below lambda_max(W/2), the PSD boundary, where a
    # floating-point factorization cannot tell the two sides apart
    w = build_objective(new_inequality("c", c))
    lam = np.full(len(w), np.linalg.eigvalsh(w / 2)[-1])
    for _ in range(k):
        lam = np.nextafter(lam, 0)
    _assert_exactly_certified(w, sdp.certify(c, lam))


@settings(derandomized, max_examples=200)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1))
def test_graded_gram_certificates_are_exactly_psd(m, seed):
    # X = D_A U_A and Y = D_B U_B, U_A and U_B with orthonormal rows in r < m
    # dimensions and rows scaled by 1, 10 or 1000.  With c = 2 X Y^T and lambda
    # the squared row norms, diag(lambda) - W/2 = [X; -Y] [X; -Y]^T: singular
    # but for the rounding in forming c and lambda, which can leave it
    # indefinite and still factorable in floating point
    rng = np.random.default_rng(seed)
    na = int(rng.integers(1, m))
    r = int(rng.integers(max(na, m - na), m))
    x, y = (np.linalg.qr(rng.standard_normal((r, n)))[0].T
            * rng.choice([1.0, 10.0, 1000.0], size=(n, 1)) for n in (na, m - na))
    c = 2 * x @ y.T
    lam = np.concatenate([sdp._row_norms(x), sdp._row_norms(y)]) ** 2
    _assert_exactly_certified(build_objective(new_inequality("c", c)), sdp.certify(c, lam))


SCALES = [1.0, 3.0, 2.0**1000, 2.0**-1000, 1e200]  # each leaves W exactly representable


def _assert_spectral_exactly_certified(c):
    # the spectral lambda sit on the PSD boundary: the proof on the Gram
    # matrix of c must hold for diag(lambda) - W/2 with no rounding
    for scale in SCALES:
        ineq = new_inequality("c", scale * c)
        report = solve(ineq, classical=False)
        assert [run.method for run in report.runs] == ["spectral"], scale
        assert report.dual.feasibility_margin == 0.0
        _assert_exactly_certified(build_objective(ineq), report.dual)


@pytest.mark.parametrize("family", [chained, gisin])
@pytest.mark.parametrize("n", range(2, 17))
def test_spectral_certificates_are_exactly_psd(family, n):
    _assert_spectral_exactly_certified(family(n).coefficients)


@pytest.mark.parametrize(
    "c",
    [np.ones((3, 5)), np.hstack([chained(4).coefficients] * 2),
     np.vstack([gisin(3).coefficients] * 3)],
    ids=["ones-3x5", "chained-4-twice", "gisin-3-thrice"],
)
def test_rectangular_spectral_certificates_are_exactly_psd(c):
    _assert_spectral_exactly_certified(c)
