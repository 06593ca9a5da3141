import numpy as np
import pytest

from tsirelson import (
    SolveOptions,
    build_objective,
    certify,
    chained,
    extract_dual,
    gisin,
    lhv_bound,
    new_inequality,
    solve,
    solve_primal,
)
from tsirelson.analytic import (
    chained_dual_lambda,
    chained_primal_vectors,
    chained_quantum_bound,
)
from tsirelson import linalg, sdp
from tsirelson.errors import InvalidRank, MaxIterReached, NonFiniteEntry
from tsirelson.linalg import sym_eigen

from oracles import rank2_max, rowwise_sweeps


def test_solve_primal_chsh_optimum():
    w = build_objective(chained(2))
    sol = solve_primal(w, rank=4)
    assert abs(sol.value - 2 * np.sqrt(2)) <= 1e-7
    np.testing.assert_allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_solve_primal_chained_family(n):
    w = build_objective(chained(n))
    sol = solve_primal(w, rank=2 * n)
    assert abs(sol.value - chained_quantum_bound(n)) <= 1e-6


def test_solve_primal_single_term():
    w = build_objective(new_inequality("one", [[1]]))
    sol = solve_primal(w, rank=2)
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_solve_primal_invalid_rank():
    w = build_objective(chained(2))
    with pytest.raises(InvalidRank):
        solve_primal(w, rank=1)


def test_solve_primal_max_iter_carries_partial():
    w = build_objective(chained(6))
    with pytest.raises(MaxIterReached) as exc:
        solve_primal(w, rank=12, max_iter=3)
    partial = exc.value.solution
    assert partial.iterations == 3 and not partial.converged
    assert partial.value <= chained_quantum_bound(6) + 1e-8


def _zero_column_w():
    c = np.random.default_rng(8).standard_normal((3, 7))
    c[:, 4] = 0.0  # Bob's fifth field is zero: that vector is skipped
    return build_objective(new_inequality("zero-column", c))


def _intra_block_w():
    # couplings inside Alice's and Bob's blocks split the two runs into four
    w = build_objective(chained(4)).copy()
    w[0, 2] = w[2, 0] = 0.7
    w[5, 6] = w[6, 5] = -0.4
    return w


@pytest.mark.parametrize(
    "w, max_iter",
    [
        (build_objective(chained(8)), sdp.DEFAULT_MAX_ITER),
        (build_objective(chained(16)), sdp.DEFAULT_MAX_ITER),
        (build_objective(gisin(5)), sdp.DEFAULT_MAX_ITER),
        (_zero_column_w(), sdp.DEFAULT_MAX_ITER),
        (_intra_block_w(), sdp.DEFAULT_MAX_ITER),
        (build_objective(chained(6)), 3),
    ],
    ids=["chained-8", "chained-16", "gisin-5", "zero-column", "intra-block",
         "max-iter-3"],
)
def test_block_sweep_matches_rowwise(w, max_iter):
    m = w.shape[0]
    v = sdp._initial_vectors(m, m, 0)
    sweeps, _, converged = rowwise_sweeps(w, v, max_iter, sdp.DEFAULT_TOL)
    try:
        sol = solve_primal(w, rank=m, max_iter=max_iter)
    except MaxIterReached as exc:
        sol = exc.solution
    assert (sol.iterations, sol.converged) == (sweeps, converged)
    np.testing.assert_allclose(sol.vectors, v, rtol=0, atol=1e-12)
    assert sol.value == pytest.approx(0.5 * float(np.sum((v @ v.T) * w)), abs=1e-12)


def test_uncoupled_runs():
    w = build_objective(new_inequality("3x5", np.ones((3, 5))))
    assert sdp._uncoupled_runs(w) == [(0, 3), (3, 8)]
    # row 2 reads row 0, row 5 (Bob 1) reads Alice 2, row 6 reads row 5
    assert sdp._uncoupled_runs(_intra_block_w()) == [
        (0, 2), (2, 5), (5, 6), (6, 8)
    ]


def test_sweep_monotonicity():
    # same seed, growing sweep budget: the trajectory is shared, so values
    # along it must be nondecreasing
    w = build_objective(gisin(4))
    values = []
    for k in range(1, 25):
        try:
            sol = solve_primal(w, rank=8, seed=5, max_iter=k)
        except MaxIterReached as exc:
            sol = exc.solution
        values.append(sol.value)
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_extract_dual_known_vectors():
    for n in (2, 3, 5):
        w = build_objective(chained(n))
        xs, ys = chained_primal_vectors(n)
        lam = extract_dual(w, np.vstack([xs, ys]))
        np.testing.assert_allclose(lam, chained_dual_lambda(n), atol=1e-12)


def test_extract_dual_zero_row():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    v = np.eye(3)
    lam = extract_dual(w, v)
    assert lam[2] == 0.0


def test_extract_dual_fixed_point_slackness():
    w = build_objective(gisin(3))
    sol = solve_primal(w, rank=6)
    lam = extract_dual(w, sol.vectors)
    assert abs(np.sum(lam) - sol.value) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
def test_certify_chained_lambda(n):
    w = build_objective(chained(n))
    cert = certify(w, chained_dual_lambda(n))
    assert abs(cert.feasibility_margin) <= 1e-9
    assert cert.certified_bound == pytest.approx(chained_quantum_bound(n), abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certify_rejects_non_finite_lambda(bad):
    w = build_objective(chained(2))
    with pytest.raises(NonFiniteEntry):
        certify(w, [bad, 1.0, 1.0, 1.0])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_certify_rejects_overflowing_bound():
    w = build_objective(chained(2))
    with pytest.raises(NonFiniteEntry):
        certify(w, np.full(4, 5e307))  # each entry finite, the sum is not


def test_certify_zero():
    cert = certify(np.zeros((2, 2)), np.zeros(2))
    assert cert.feasibility_margin == 0.0
    assert cert.certified_bound == 0.0


def test_certify_corrupted_lambda_still_bounds():
    # the shift rule makes ANY lambda produce a valid upper bound; compare
    # against the independent planar-angle oracle
    rng = np.random.default_rng(17)
    cases = [
        np.array([[1.0, 1.0], [1.0, -1.0]]),
        np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0], [0.0, -1.0]]),
    ]
    for c in cases:
        exact = rank2_max(c)
        w = build_objective(new_inequality("case", c))
        for _ in range(4):
            lam = rng.standard_normal(w.shape[0])
            cert = certify(w, lam)
            assert cert.certified_bound >= exact - 1e-6


def test_solve_chained_4():
    report = solve(chained(4))
    target = 8 * np.cos(np.pi / 8)
    assert report.primal.value == pytest.approx(target, abs=1e-6)
    assert report.dual.certified_bound == pytest.approx(target, abs=1e-6)
    assert report.classical_bound == 6.0


def test_solve_gisin_3_certified():
    report = solve(gisin(3))
    assert report.gap <= 1e-5
    # independent sanity bound: p <= (m/2) * max_eig(W)
    w = build_objective(gisin(3))
    top = sym_eigen(w).eigenvalues[-1]
    assert report.primal.value <= 0.5 * w.shape[0] * top + 1e-8


def test_solve_does_not_reach_jacobi(monkeypatch):
    def jacobi(_):
        raise AssertionError("sym_eigen called on the solve path")

    monkeypatch.setattr(linalg, "sym_eigen", jacobi)
    report = solve(gisin(4))
    assert report.gap <= 1e-5


def test_solve_chained_1_degenerate():
    report = solve(chained(1))
    assert report.primal.value == 0.0
    assert report.dual.certified_bound == 0.0


def test_solve_seed_determinism():
    opts = SolveOptions(seed=9)
    r1 = solve(gisin(4), opts)
    r2 = solve(gisin(4), opts)
    assert r1.primal.value == r2.primal.value
    assert r1.dual.certified_bound == r2.dual.certified_bound
    np.testing.assert_array_equal(r1.primal.vectors, r2.primal.vectors)
    np.testing.assert_array_equal(r1.dual.lam, r2.dual.lam)
    assert r1.runs == r2.runs


def test_weak_duality_random_sign_matrices():
    rng = np.random.default_rng(31)
    for k in range(40):
        na, nb = rng.integers(1, 6), rng.integers(1, 6)
        c = rng.integers(-1, 2, (na, nb)).astype(float)
        if not c.any():
            c[0, 0] = 1.0
        ineq = new_inequality(f"rand-{k}", c)
        report = solve(ineq, SolveOptions(seed=k))
        assert report.dual.certified_bound >= report.primal.value - 1e-8
        assert report.primal.value >= lhv_bound(ineq).value - 1e-8


def test_rank_sufficiency_chained():
    for n in (2, 5, 10):
        report = solve(chained(n), SolveOptions(rank=2 * n))
        assert report.gap <= 1e-6
