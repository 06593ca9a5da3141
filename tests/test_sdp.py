import dataclasses
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tsirelson import (
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
from tsirelson.analytic import chained_quantum_bound
from tsirelson.inequality import CorrelationInequality
from tsirelson import classical as classical_module, sdp
from tsirelson.errors import (
    EmptyMatrix,
    InvalidRank,
    LengthMismatch,
    NonFiniteEntry,
    TooLarge,
)

from oracles import (
    _value,
    chained_dual_lambda,
    chained_primal_vectors,
    exact_psd,
    exact_slack,
    gisin_quantum_bound,
    lstsq_tight,
    mixing_gap_limit,
    normal_anderson,
    rank2_max,
    refuse_build_objective,
    rowwise_sweeps,
    stacked_anderson,
    sym_eigen,
)


def _bp_rank(m):
    """The Barvinok-Pataki rank min(m, ceil(sqrt(2m)) + 1) of solve's mixing run."""
    return min(m, math.ceil(math.sqrt(2 * m)) + 1)


def _w(c):
    """The reference objective W = [[0, c], [c^T, 0]] the oracles read."""
    return build_objective(new_inequality("c", c))


def _ct(c):
    """The contiguous transpose the sweep and the gate read."""
    return np.ascontiguousarray(np.transpose(c))


def test_solve_primal_chsh_optimum():
    sol = solve_primal(chained(2).coefficients, rank=4)
    assert abs(sol.value - 2 * np.sqrt(2)) <= 1e-7
    np.testing.assert_allclose(np.linalg.norm(sol.vectors, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_solve_primal_chained_family(n):
    sol = solve_primal(chained(n).coefficients, rank=2 * n)
    assert abs(sol.value - chained_quantum_bound(n)) <= 1e-6


def test_solve_primal_single_term():
    sol = solve_primal([[1.0]], rank=2)
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_solve_primal_invalid_rank():
    with pytest.raises(InvalidRank):
        solve_primal(chained(2).coefficients, rank=1)


def test_solve_primal_max_iter_carries_partial(monkeypatch):
    # a capped ascent is a result: the last iterate, marked unconverged
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 3)
    partial = solve_primal(chained(6).coefficients, rank=12)
    assert partial.iterations == 3 and not partial.converged
    assert partial.residual >= sdp._RESIDUAL_TOL
    assert partial.value <= chained_quantum_bound(6) + 1e-8


def _zero_column_c():
    c = np.random.default_rng(8).standard_normal((3, 7))
    c[:, 4] = 0.0  # Bob's fifth field is zero: that vector is skipped
    return c


SWEEP_CASES = [
    (chained(8).coefficients, sdp.DEFAULT_MAX_ITER),
    (chained(16).coefficients, sdp.DEFAULT_MAX_ITER),
    (gisin(5).coefficients, sdp.DEFAULT_MAX_ITER),
    (_zero_column_c(), sdp.DEFAULT_MAX_ITER),
    (chained(6).coefficients, 3),
]
SWEEP_IDS = ["chained-8", "chained-16", "gisin-5", "zero-column", "max-iter-3"]


@pytest.mark.parametrize("c, max_iter", SWEEP_CASES, ids=SWEEP_IDS)
def test_block_sweep_matches_rowwise(c, max_iter):
    # the plain map, iterated as many times as the row-by-row ascent on W sweeps
    w = _w(c)
    m = w.shape[0]
    v = sdp._initial_vectors(m, m, 0)
    block = v.copy()
    sweeps, _, converged = rowwise_sweeps(w, v, max_iter, sdp._RESIDUAL_TOL)
    residuals = []
    for _ in range(sweeps):
        before = block.copy()
        sdp._sweep(c, _ct(c), block, 1e-14)
        residuals.append(np.linalg.norm(block - before, axis=1).max())
    assert min(residuals[:-1], default=np.inf) >= sdp._RESIDUAL_TOL
    assert (residuals[-1] < sdp._RESIDUAL_TOL) == converged
    np.testing.assert_allclose(block, v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("c, max_iter", SWEEP_CASES, ids=SWEEP_IDS)
def test_sweep_value_and_quiet_sweep(monkeypatch, c, max_iter):
    # the value read off Bob's fields is the objective of the swept rows
    w = _w(c)
    v = sdp._initial_vectors(w.shape[0], 4, 0)
    for _ in range(min(max_iter, 6)):
        value = sdp._sweep(c, _ct(c), v, 1e-14)
        assert abs(value - _value(w, v)) <= 1e-12 * max(1.0, abs(value))
    # solve_primal's residual, read off F(v) - v, is the first sweep's
    # largest displacement, as the row-by-row ascent measures it
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 1)
    sol = solve_primal(c, rank=4)
    assert (sol.iterations, sol.converged) == (1, False)
    v = sdp._initial_vectors(w.shape[0], 4, 0)
    _, residual, _ = rowwise_sweeps(w, v, 1, sdp._RESIDUAL_TOL)
    assert abs(sol.residual - residual) <= 1e-12


@pytest.mark.parametrize("keepdims", [False, True])
def test_row_norms_match_numpy_norm(keepdims):
    # the helper is the expression np.linalg.norm evaluates for a real x and
    # ord=None along one axis; a numpy release that changes it fails here
    rng = np.random.default_rng(7)
    for rows in range(1, 65):
        for cols in range(1, 34):
            x = rng.standard_normal((rows, cols))
            x *= np.ldexp(1.0, rng.choice([-500, 0, 500], (rows, 1)))
            x[rng.random(rows) < 0.2] = 0.0
            ours = sdp._row_norms(x, keepdims=keepdims)
            ref = np.linalg.norm(x, axis=1, keepdims=keepdims)
            assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()


def test_sweep_leaves_zero_field_row_bitwise():
    # Alice's setting 1 has no coefficients, so its field is zero: the masked
    # divide writes straight into v and must leave that row as it was
    c = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, -1.0]])
    v = sdp._initial_vectors(5, 4, 0)
    before = v.copy()
    sdp._sweep(c, _ct(c), v, 1e-14)
    assert v[1].tobytes() == before[1].tobytes()
    assert not np.array_equal(np.delete(v, 1, 0), np.delete(before, 1, 0))
    sol = solve_primal(c, 4)
    assert sol.vectors[1].tobytes() == before[1].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_primal_rejects_non_finite_w(bad):
    # a non-finite c is refused before the ascent, whose Cholesky gate
    # cannot tell a NaN matrix from a PSD one
    c = chained(3).coefficients.copy()
    c[0, 1] = bad
    with pytest.raises(NonFiniteEntry):
        solve_primal(c, rank=4)


def test_gap_gate_rejects_nan_slack(monkeypatch):
    # np.linalg.cholesky factors a NaN matrix without raising, so a NaN
    # slack, from a NaN in Alice's rows or in Bob's, must be refused before
    # it: no proof, and nothing factored
    c = chained(3).coefficients
    cs = sdp._scaled(c)[0]
    monkeypatch.setattr(sdp, "_GAP_TARGET", 1e300)  # any finite slack passes the target
    factored = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(1))
    for row in (2, 4):
        v = sdp._initial_vectors(6, 4, 0)
        v[row, 1] = np.nan
        assert sdp._gap_proven(cs, _ct(cs), v) == (None, None)
    assert factored == []


def _random_sparse(seed):
    # zero rows and columns are common: their rows keep their vectors
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(1, 40, 2)
    return rng.standard_normal((na, nb)) * (rng.random((na, nb)) < rng.random())


@pytest.mark.parametrize(
    "c",
    [c for c, _ in SWEEP_CASES] + [_random_sparse(s) for s in range(40)],
    ids=SWEEP_IDS + [f"sparse-{s}" for s in range(40)],
)
def test_uncoupled_runs_match_rowwise(c):
    # W couples no two of Alice's rows and no two of Bob's: the sweep's two
    # runs, Alice's block then Bob's, give the iterate of one row at a time
    w = _w(c)
    v = sdp._initial_vectors(len(w), 5, 0)
    block = v.copy()
    rowwise_sweeps(w, v, 1, 0.0)
    value = sdp._sweep(c, _ct(c), block, 1e-14)
    np.testing.assert_allclose(block, v, rtol=0, atol=1e-12)
    assert abs(value - _value(w, v)) <= 1e-12 * max(1.0, abs(value))


def test_sweep_fields_match_w_views_bitwise(monkeypatch):
    # in every sweep solve_primal makes, Alice's fields c @ y and Bob's
    # c^T @ x, from the contiguous copy of c^T, are the products on W's
    # blocks bit for bit, so the iterates are those of the ascent on W.  The
    # transposed view c.T takes another BLAS path, which rounds otherwise
    sweeps = []
    sweep = sdp._sweep

    def record(cs, cts, v, floor):
        before = v.copy()
        value = sweep(cs, cts, v, floor)
        sweeps.append((before, v.copy(), value))
        return value

    monkeypatch.setattr(sdp, "_sweep", record)
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 2)
    rng = np.random.default_rng(26)
    for _ in range(150):
        na, nb = (int(k) for k in rng.integers(2, 80, 2))
        c = rng.standard_normal((na, nb))
        cs, e, _ = sdp._scaled(c)
        ws = np.ldexp(_w(c), -e)
        sweeps.clear()
        solve_primal(c, int(rng.integers(2, 30)), seed=int(rng.integers(99)))
        assert sweeps
        for v, swept, value in sweeps:
            g = ws[:na, na:] @ v[na:]
            x = g / sdp._row_norms(g, keepdims=True)
            h = ws[na:, :na] @ x
            y = h / sdp._row_norms(h, keepdims=True)
            assert swept.tobytes() == np.concatenate([x, y]).tobytes()
            assert value == float(np.vdot(y, h))
            views = np.concatenate([ws[:na, na:] @ swept[na:], ws[na:, :na] @ swept[:na]])
            assert sdp._fields(cs, _ct(cs), swept).tobytes() == views.tobytes()


@pytest.mark.parametrize(
    "ineq",
    [chained(16),
     new_inequality("random-12", np.random.default_rng(12).standard_normal((12, 12)))],
    ids=["chained-16", "random-12"],
)
def test_anderson_matches_stacked(monkeypatch, ineq):
    # every mix the solve makes, with the oldest-first history of points
    # pushed into the ring since it was last cleared
    points, seen = [], []
    push, clear, mix = sdp._Anderson.push, sdp._Anderson.clear, sdp._Anderson.mix

    def record_push(ring, f, fx):
        push(ring, f, fx)
        points[:] = points[1 - sdp._DEPTH:] + [(f.copy(), fx.copy())]

    def record_clear(ring):
        clear(ring)
        points.clear()

    def record_mix(ring):
        out = mix(ring)
        seen.append((list(points), out.copy()))
        return out

    monkeypatch.setattr(sdp._Anderson, "push", record_push)
    monkeypatch.setattr(sdp._Anderson, "clear", record_clear)
    monkeypatch.setattr(sdp._Anderson, "mix", record_mix)
    # solve's first run; solve itself takes the spectral path on chained-16
    solve_primal(ineq.coefficients, _bp_rank(ineq.n_alice + ineq.n_bob))
    assert len(seen) >= 5 and max(len(h) for h, _ in seen) == sdp._DEPTH
    for history, out in seen:
        assert out is not None  # no singular system on these two
        # the ring's running normal matrix and differences against the
        # history differenced afresh, and against the lstsq mix
        np.testing.assert_allclose(out, normal_anderson(history).reshape(-1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, stacked_anderson(history).reshape(-1), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "ineq, iterations",
    [(chained(8), 14), (chained(16), 26), (chained(32), 46), (gisin(16), 6),
     (new_inequality("random-16", np.random.default_rng(16).integers(-3, 4, (16, 16))), 26)],
    ids=["chained-8", "chained-16", "chained-32", "gisin-16", "random-16"],
)
def test_iteration_counts_are_pinned(ineq, iterations):
    # the mixing trajectory of solve's first run, on the default seed at the
    # Barvinok-Pataki rank (solve takes the spectral path on chained and
    # gisin); a change to these counts is a change of the ascent and must be
    # explained in CHANGES.md
    rank = _bp_rank(ineq.n_alice + ineq.n_bob)
    assert solve_primal(ineq.coefficients, rank).iterations == iterations


def test_repeated_history_entry_is_rejected(monkeypatch):
    # a history entry repeated makes the normal equations singular: the mix
    # is rejected without a warning, and the plain sweep carries the ascent
    c = gisin(4).coefficients
    v = sdp._initial_vectors(8, 4, 0)
    fv = v.copy()
    sdp._sweep(c, _ct(c), fv, 1e-14)
    ring = sdp._Anderson(fv.size)
    mix = sdp._Anderson.mix
    outs = []

    def repeat_last(self):
        self.push(self.f, self.fx)
        outs.append(mix(self))
        return outs[-1]

    monkeypatch.setattr(sdp._Anderson, "mix", repeat_last)
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ring.push(fv - v, fv)
        ring.push(fv - v, fv)
        assert mix(ring) is None
        for k in range(1, 40):
            monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", k)
            values.append(solve_primal(c, rank=4, seed=5).value)
    assert outs and all(out is None for out in outs)
    assert np.all(np.diff(values) >= -1e-12)


def test_overflowing_weights_are_rejected():
    # a normal matrix of 2e-310 is not singular to the solver, but residuals
    # of 1e300 take gamma past the float range: the mix is rejected silently
    ring = sdp._Anderson(2)
    ring.push(np.zeros(2), np.zeros(2))
    ring.push(np.full(2, 1e-155), np.zeros(2))
    assert ring.normal[0, 0] == 2e-310
    ring.f = np.full(2, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ring.mix() is None


def _gate_cases():
    for n in (8, 16, 32):
        yield chained(n).coefficients
    for n in (8, 16):
        yield gisin(n).coefficients
    rng = np.random.default_rng(2024)
    for k in range(10):
        na, nb = rng.integers(2, 13, 2)
        c = rng.standard_normal((na, nb)) if k % 3 == 0 else rng.integers(-3, 4, (na, nb))
        yield c.astype(float)


def _gate_multipliers(cs, v, target):
    """lambda and the gate's x = lambda + t, t = (target - slack) / m, as it forms them."""
    g = sdp._fields(cs, _ct(cs), v)
    lam = extract_dual(cs, v)
    t = (target - (float(np.sum(lam)) - 0.5 * float(np.vdot(g, v)))) / len(v)
    return lam, lam + t, t


def test_cholesky_gate_matches_certify(monkeypatch):
    # every in-loop gap check decides as the certificate would, at the gap
    # target and at targets just either side of the check's own gap; it
    # factors only when the slack sum(lambda) - value is within the target.
    # A check that passes returns its proof: certify's Cholesky-first
    # certificate of x = lambda + t, bit for bit, with no eigensolver
    checks = []
    gate = sdp._gap_proven

    def record(cs, cts, v):
        lam, proof = gate(cs, cts, v)
        checks.append((cs, v.copy(), proof))
        return lam, proof

    monkeypatch.setattr(sdp, "_gap_proven", record)
    for c in _gate_cases():
        m = sum(c.shape)
        solve_primal(c, rank=min(m, math.isqrt(2 * m - 1) + 2))
    stops = [proof is not None for *_, proof in checks]
    assert len(checks) >= 30 and 0 < sum(stops) < len(checks)
    factored, shifted = [], []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(1) or cholesky(a))
    min_eig = sdp.min_eigenvalue
    monkeypatch.setattr(sdp, "min_eigenvalue", lambda a: shifted.append(1) or min_eig(a))
    default = sdp._GAP_TARGET
    for (cs, v, proof), stop in zip(checks, stops):
        lam, x, t = _gate_multipliers(cs, v, default)
        value = _value(_w(cs), v)
        slack = float(np.sum(lam)) - value
        gap = certify(cs, lam).certified_bound - value
        assert stop == (gap <= default)
        if stop:
            shifted.clear()
            cert = certify(cs, x)
            assert not shifted and cert.feasibility_margin == 0.0
            assert cert.lam.tobytes() == np.nextafter(proof, np.inf).tobytes()
            assert float(np.sum(proof)) - value <= mixing_gap_limit(cs, float(np.sum(proof)))
        eps = max(1e-3 * gap, 1e-9)
        for target in (default, gap - eps, gap + eps):
            monkeypatch.setattr(sdp, "_GAP_TARGET", target)
            factored.clear()
            assert (gate(cs, _ct(cs), v)[1] is not None) == (gap <= target)
            assert bool(factored) == (target >= slack)


def test_sweep_monotonicity(monkeypatch):
    # same seed, growing sweep budget: the trajectory is shared, so values
    # along it must be nondecreasing
    c = gisin(4).coefficients
    values = []
    for k in range(1, 25):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", k)
        values.append(solve_primal(c, rank=8, seed=5).value)
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_worse_mixed_point_is_rejected(monkeypatch):
    # a mix that lands on random vectors mostly scores below the plain sweep;
    # only the safeguard keeps the trajectory nondecreasing
    def scatter(ring):
        # seeded by the number of points in the history
        return np.random.default_rng(ring.k + 1).standard_normal(ring.fx.shape)

    monkeypatch.setattr(sdp._Anderson, "mix", scatter)
    c = gisin(4).coefficients
    values = []
    for k in range(1, 40):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", k)
        sol = solve_primal(c, rank=4, seed=5)
        values.append(sol.value)
    assert np.all(np.diff(values) >= -1e-12)
    assert sol.converged


def test_gap_stop():
    # chained-16 is proven within the gap target before any sweep moves a
    # vector by less than _RESIDUAL_TOL
    c = chained(16).coefficients
    sol = solve_primal(c, rank=9)
    assert sol.converged and sol.residual >= sdp._RESIDUAL_TOL
    gap = certify(c, extract_dual(c, sol.vectors)).certified_bound - sol.value
    assert 0.0 <= gap <= 2 * sdp._GAP_TARGET  # max|c| = 1, scaled by 1/2


def test_extract_dual_known_vectors():
    for n in (2, 3, 5):
        xs, ys = chained_primal_vectors(n)
        lam = extract_dual(chained(n).coefficients, np.vstack([xs, ys]))
        np.testing.assert_allclose(lam, chained_dual_lambda(n), atol=1e-12)


def test_extract_dual_zero_row():
    # Bob's second setting has no coefficient: its multiplier is 0
    v = np.eye(3)
    lam = extract_dual([[1.0, 0.0]], v)
    assert lam[2] == 0.0


def test_extract_dual_fixed_point_slackness():
    c = gisin(3).coefficients
    sol = solve_primal(c, rank=6)
    lam = extract_dual(c, sol.vectors)
    assert abs(np.sum(lam) - sol.value) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
def test_certify_chained_lambda(n):
    cert = certify(chained(n).coefficients, chained_dual_lambda(n))
    assert abs(cert.feasibility_margin) <= 1e-9
    assert cert.certified_bound == pytest.approx(chained_quantum_bound(n), abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certify_rejects_non_finite_lambda(bad):
    with pytest.raises(NonFiniteEntry):
        certify(chained(2).coefficients, [bad, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("lam", [[0.1], np.full((4, 4), 0.1), [0.1, 0.1]],
                         ids=["length-1", "4x4", "length-2"])
def test_certify_rejects_wrong_shape(lam):
    # a length-1 or 4x4 lambda used to broadcast against W into a "certificate"
    with pytest.raises(LengthMismatch):
        certify(chained(2).coefficients, lam)


EMPTY = [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((0, 0)), [], [[]]]
EMPTY_IDS = ["0x3", "2x0", "0x0", "flat", "one-empty-row"]


@pytest.mark.parametrize("c", EMPTY, ids=EMPTY_IDS)
def test_solve_primal_rejects_empty_block(c):
    # numpy's "zero-size array to reduction" ValueError used to escape
    with pytest.raises(EmptyMatrix):
        solve_primal(c, rank=2)


@pytest.mark.parametrize("c", EMPTY, ids=EMPTY_IDS)
def test_extract_dual_rejects_empty_block(c):
    with pytest.raises(EmptyMatrix):
        extract_dual(c, np.ones((3, 2)))


@pytest.mark.parametrize("c", EMPTY, ids=EMPTY_IDS)
def test_certify_rejects_empty_block(c):
    with pytest.raises(EmptyMatrix):
        certify(c, np.ones(3))


@pytest.mark.parametrize("c", [np.ones(3), np.ones((2, 2, 2))], ids=["1-d", "3-d"])
def test_entry_points_reject_a_block_that_is_not_2d(c):
    # solve_primal used to raise numpy's matmul ValueError, and certify a
    # LengthMismatch "expected (6,)" from the sum of a 3-d shape
    with pytest.raises(EmptyMatrix):
        solve_primal(c, rank=2)
    with pytest.raises(EmptyMatrix):
        extract_dual(c, np.ones((3, 2)))
    with pytest.raises(EmptyMatrix):
        certify(c, np.ones(sum(c.shape)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_extract_dual_rejects_non_finite_input(bad):
    # a NaN c gave NaN multipliers, and an infinite one a RuntimeWarning
    c = chained(2).coefficients.copy()
    c[0, 1] = bad
    with pytest.raises(NonFiniteEntry):
        extract_dual(c, np.ones((4, 2)))
    v = np.ones((4, 2))
    v[3, 0] = bad
    with pytest.raises(NonFiniteEntry):
        extract_dual(chained(2).coefficients, v)


@pytest.mark.parametrize("shape", [(0, 2), (3,)], ids=["0x2", "flat"])
def test_solve_checks_a_hand_built_block(shape):
    # CorrelationInequality does not check its block; solve does, before the
    # classical enumeration, which raised a ValueError on either shape
    ineq = CorrelationInequality("bad", np.zeros(shape))
    for classical in (True, False):
        with pytest.raises(EmptyMatrix):
            solve(ineq, classical=classical)


@pytest.mark.parametrize("rows", [3, 5, 8], ids=["3-rows", "5-rows", "8-rows"])
def test_extract_dual_rejects_wrong_row_count(rows):
    # chained-2 has 4 rows; a matmul ValueError, or a lambda of the wrong
    # length from 8 rows, used to escape
    with pytest.raises(LengthMismatch, match="expected 4 rows"):
        extract_dual(chained(2).coefficients, np.ones((rows, 2)))
    with pytest.raises(LengthMismatch):
        extract_dual(chained(2).coefficients, np.ones(4))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_certify_rejects_overflowing_bound():
    with pytest.raises(NonFiniteEntry):
        certify(chained(2).coefficients, np.full(4, 5e307))  # each entry finite, the sum is not


def test_certify_zero():
    cert = certify(np.zeros((1, 1)), np.zeros(2))
    assert cert.feasibility_margin == 0.0
    assert cert.certified_bound == 0.0


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_certify_adversarial_chsh_lambda(k):
    # every lambda k ulps below 1/sqrt(2): diag(lambda) - W/2 is not PSD, by
    # less than an eigensolver resolves; at k = 1 the bound used to come out
    # below 2 sqrt(2)
    c = chained(2).coefficients
    lam = np.full(4, 1 / np.sqrt(2))
    for _ in range(k):
        lam = np.nextafter(lam, 0)
    cert = certify(c, lam)
    bound = Fraction(cert.certified_bound)
    assert bound > 0 and bound * bound >= 8
    assert exact_psd(exact_slack(_w(c), cert.lam))


@pytest.mark.parametrize("coefficient, lam", [
    (2.2916796125437937, [0.9257781740313129, 1.4182110774117358]),
    (-4.856073150846181, [7.824228012791714, 0.753475180165257]),
    (5.10944759761186, [1.9393116086079498, 3.3654280514879424]),
])
def test_certify_lambda_a_factorization_accepts(coefficient, lam):
    # one setting a side, lambda_2 about 2 ulps below c^2 / 4 lambda_1: diag(lambda)
    # - W/2 is indefinite, yet OpenBLAS's Cholesky factors it as certify scales
    # it, by 2^-e with max|c| 2^-e in [1/2, 1); found by a random search, these
    # are bounds that a certificate without a rounding allowance gets wrong
    c = [[coefficient]]
    assert Fraction(lam[0]) * Fraction(lam[1]) < Fraction(coefficient) ** 2 / 4
    cert = certify(c, lam)
    assert exact_psd(exact_slack(_w(c), cert.lam))
    assert Fraction(cert.certified_bound) >= sum(map(Fraction, cert.lam.tolist()))


@pytest.mark.parametrize("family, exact", [(chained, chained_quantum_bound),
                                           (gisin, gisin_quantum_bound)],
                         ids=["chained", "gisin"])
def test_spectral_gap_is_not_negative(family, exact):
    # the spectral lambda sit on the PSD boundary; before the rounding
    # allowance 16 of these inputs reported a certified bound below the primal.
    # The proof on the Gram matrix needs no shift and stays above the closed form
    for n in range(2, 257):
        report = solve(family(n), classical=False)
        assert report.runs[0].method == "spectral"
        assert report.dual.feasibility_margin == 0.0
        assert report.gap >= 0
        assert report.relative_gap <= sdp.OPTIMAL_GAP
        assert report.dual.certified_bound >= exact(n)


@pytest.mark.parametrize("family, exact", [(chained, chained_quantum_bound),
                                           (gisin, gisin_quantum_bound)])
@pytest.mark.parametrize("n", [96, 128, 256])
def test_spectral_path_at_large_n(family, exact, n):
    # tightness is judged before the allowance, which grows like m^2 u sum(lambda)
    # and here stays inside OPTIMAL_GAP
    report = solve(family(n), classical=False)
    assert [run.method for run in report.runs] == ["spectral"]
    assert report.dual.feasibility_margin == 0.0
    assert report.relative_gap <= sdp.OPTIMAL_GAP
    assert report.dual.certified_bound >= exact(n)


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_certify_allowance_size(n):
    # the paper's lambda factor at once.  In c 2^-e, max|c| 2^-e in [1/2, 1),
    # certify raises Bob's x_l by his floor (m+2)^2 u x_l + m u, and Alice's
    # x_s by 2 cap + delta of the proof on her n x n Schur complement: cap =
    # (n+2)^2 u (x_s + g_ss) + n u, with g_ss <= x_s at a feasible lambda, and
    # delta = 2 (n+4) u (r + 1), r the largest row sum of |k| |k|^T, k = c
    # 2^-e / (2 sqrt(y)) <= c 2^-e / (2 sqrt(x_l)).  The m x m proof's 2
    # (m+2)^2 u sum(lambda) exceeds this from n = 3
    m, u = 2 * n, 2.0**-53
    c, lam = chained(n).coefficients, chained_dual_lambda(n)
    cert = certify(c, lam)
    assert cert.feasibility_margin == 0.0
    e = math.frexp(np.abs(c).max())[1]
    xs, xl = np.ldexp(lam[:n], -e), np.ldexp(lam[n:], -e)
    b = np.ldexp(np.abs(c), -e) / (2 * np.sqrt(xl))
    delta = 2 * (n + 4) * u * (float((b @ b.sum(axis=0)).max()) + 1)
    small = 2 * ((n + 2) ** 2 * u * 2 * xs.sum() + n * n * u) + n * delta
    large = (m + 2) ** 2 * u * xl.sum() + n * m * u
    rounding = 4 * m * np.spacing(lam.max())
    assert 0 < cert.certified_bound - math.fsum(lam) <= math.ldexp(small + large, e) + rounding


def _schur_edge(shape, seed, scale=1.0, zero=None):
    c = np.random.default_rng(seed).integers(-3, 4, shape) * 1.0
    if zero is not None:  # a zero row or column on the larger side
        c[(zero, slice(None)) if shape[0] > shape[1] else (slice(None), zero)] = 0.0
    return c, scale


SCHUR_EDGES = {
    "wide-3x7": _schur_edge((3, 7), 1),
    "tall-7x3": _schur_edge((7, 3), 2),
    "square-5x5": _schur_edge((5, 5), 3),
    "row-1x6": _schur_edge((1, 6), 4),
    "column-6x1": _schur_edge((6, 1), 5),
    "zero-column-4x7": _schur_edge((4, 7), 6, zero=2),
    "zero-row-7x4": _schur_edge((7, 4), 7, zero=5),
    "big-3x6": _schur_edge((3, 6), 8, scale=1e300),
    "tiny-6x3": _schur_edge((6, 3), 9, scale=1e-300),
    "big-1x5": _schur_edge((1, 5), 10, scale=1e300),
    "tiny-5x1": _schur_edge((5, 1), 11, scale=1e-300),
}


@pytest.mark.parametrize("c, scale", SCHUR_EDGES.values(), ids=SCHUR_EDGES)
def test_schur_proof_is_exact_at_its_edges(c, scale):
    # the proof on the smaller side's Schur complement: solve's certificate,
    # certify's Cholesky-first proof of an optimal lambda raised by 1e-3 of
    # its largest, and its shift and doubling on lambda lowered by as much
    # (below the value, so not feasible) are all exactly PSD.  lambda is read
    # at scale 1: below it, fields under 1e-14 are zero and the ascent stops
    lam = extract_dual(c, solve(new_inequality("c", c), classical=False).primal.vectors)
    c, lam = c * scale, lam * scale
    report = solve(new_inequality("c", c), classical=False)
    assert [run.method for run in report.runs] == ["mixing"]
    w = _w(c)
    assert exact_psd(exact_slack(w, report.dual.lam))
    for step in (1e-3, -1e-3):
        cert = certify(c, lam + step * np.abs(lam).max())
        assert (cert.feasibility_margin < 0) == (step < 0)
        assert exact_psd(exact_slack(w, cert.lam))


@pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=["bob-larger", "alice-larger"])
@pytest.mark.parametrize("low", [0.0, -1.0])
def test_certify_non_positive_larger_side_takes_the_shift(monkeypatch, shape, low):
    # one larger-side lambda at or below zero: at -1 it stays non-positive
    # under its floor, so _proven declines before factoring anything; at 0 the
    # Schur complement's factorization fails.  certify then takes the shift,
    # and its certificate is exact
    c = np.random.default_rng(12).integers(1, 4, shape) * 1.0
    na, nb = shape
    lam = extract_dual(c, solve(new_inequality("c", c), classical=False).primal.vectors)
    larger = na + 1 if nb > na else 1
    lam[larger] = low
    cs, e, _ = sdp._scaled(c)
    factored, shifted = [], []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(1) or cholesky(a))
    assert sdp._proven(cs, np.ldexp(lam, -e)) is None
    assert len(factored) == (low == 0.0)
    min_eig = sdp.min_eigenvalue
    monkeypatch.setattr(sdp, "min_eigenvalue", lambda a: shifted.append(1) or min_eig(a))
    cert = certify(c, lam)
    assert shifted == [1] and cert.feasibility_margin < 0
    assert exact_psd(exact_slack(_w(c), cert.lam))


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
        for _ in range(4):
            lam = rng.standard_normal(sum(c.shape))
            cert = certify(c, lam)
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


def test_solve_chained_1_degenerate():
    report = solve(chained(1))
    assert report.primal.value == 0.0
    assert report.dual.certified_bound == 0.0


def test_solve_seed_determinism():
    r1 = solve(gisin(4))
    r2 = solve(gisin(4))
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
        report = solve(ineq)
        classical = lhv_bound(ineq).value
        assert report.dual.certified_bound >= report.primal.value - 1e-8
        assert report.primal.value >= classical - 1e-8
        # the ascent itself, from a different start on each input
        sol = solve_primal(c, _bp_rank(na + nb), seed=k)
        cert = certify(c, extract_dual(c, sol.vectors))
        assert cert.certified_bound >= sol.value - 1e-8
        assert sol.value >= classical - 1e-8


def test_rank_sufficiency_chained():
    for n in (2, 5, 10):
        c = chained(n).coefficients
        sol = solve_primal(c, rank=2 * n)
        cert = certify(c, extract_dual(c, sol.vectors))
        assert cert.certified_bound - sol.value <= 1e-6


@pytest.mark.parametrize("ineq", [chained(2), chained(8), chained(32), gisin(5)],
                         ids=lambda ineq: ineq.name)
def test_solve_rank_is_barvinok_pataki(monkeypatch, ineq):
    # the one mixing run is at min(m, ceil(sqrt(2m)) + 1); STUCK pins a
    # lift's rank + 1.  These inputs take the spectral path unless it is
    # patched out
    monkeypatch.setattr(sdp, "_spectral", lambda *args: None)
    m = ineq.n_alice + ineq.n_bob
    report = solve(ineq, classical=False)
    assert [run.rank for run in report.runs] == [_bp_rank(m)]
    assert [run.method for run in report.runs] == ["mixing"]


def test_solve_takes_only_the_inequality():
    assert list(inspect.signature(sdp.solve).parameters) == ["ineq", "classical"]


def test_too_large_fails_before_the_quantum_solve(monkeypatch):
    # 31 settings on each side exceed ENUM_LIMIT: the classical enumeration
    # refuses before any spectral test or ascent runs
    def refuse(*args, **kwargs):
        raise AssertionError("quantum solve ran before the classical check")

    monkeypatch.setattr(sdp, "_spectral", refuse)
    monkeypatch.setattr(sdp, "_ascent", refuse)
    c = np.random.default_rng(31).integers(-3, 4, (31, 31))
    with pytest.raises(TooLarge):
        solve(new_inequality("random-31", c))


TIE = new_inequality("tie", [[-3, 2, 1], [1, 0, 3], [-1, 0, -3]])


def test_tie_converges():
    # the classical and quantum bounds are both 12 here, where the plain
    # ascent is sublinear: it ran all 10000 sweeps and stopped 1.5e-8 short
    report = solve(TIE)
    (run,) = report.runs
    assert report.primal.converged is run.converged is True
    assert report.primal.iterations == run.iterations < 100
    assert run.primal_value >= 12.0 - 1e-9
    assert report.primal.value >= 12.0 - 1e-9
    assert report.gap <= sdp.OPTIMAL_GAP


def test_primal_not_below_classical(monkeypatch):
    # stopped after 8 iterations the ascent is 2e-6 short of 12; the
    # classical witness is a feasible point worth 12
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 8)
    report = solve(TIE)
    (run,) = report.runs
    assert run.primal_value < 12.0
    assert report.classical_bound == 12.0
    assert report.primal.value == 12.0
    assert report.primal.iterations == run.iterations == 8
    assert report.primal.converged is run.converged is False
    assert report.gap == report.dual.certified_bound - 12.0
    v = report.primal.vectors
    np.testing.assert_array_equal(np.abs(v[:, 0]), 1.0)
    np.testing.assert_array_equal(v[:, 1:], 0.0)


STUCK = new_inequality(
    "rand-6",
    [[-1, -3, 2, 2, -1, 2], [-1, 2, -2, -2, -1, 0], [-1, -3, 0, 2, 2, 2],
     [-3, 2, 2, -1, 3, 1], [1, -1, 0, -2, 3, -1], [-1, 2, 2, -1, -3, -1]],
)


def _lifts(monkeypatch):
    """(checks, lifts): an entry per gap check, and the number of checks run before each lift."""
    checks, lifts = [], []
    gate, slack = sdp._gap_proven, sdp._slack
    monkeypatch.setattr(sdp, "_gap_proven", lambda *a: checks.append(1) or gate(*a))
    monkeypatch.setattr(sdp, "_slack", lambda *a: lifts.append(len(checks)) or slack(*a))
    return checks, lifts


def test_stuck_run_lifts_once(monkeypatch):
    # seed 0 at rank 6 stalls near a saddle: its multipliers sum to the value
    # but their slack is not PSD.  It used to spend the whole cap there, then
    # restart at seed 1 and rank 8.  One eigh of the slack lifts it a rank up
    # along the least eigenvector, and the one run reaches the optimum
    lifts = _lifts(monkeypatch)[1]
    ascents = []
    ascent = sdp._ascent
    monkeypatch.setattr(sdp, "_ascent", lambda *a: ascents.append(1) or ascent(*a))
    report = solve(STUCK)
    (run,) = report.runs
    assert len(ascents) == len(lifts) == 1
    assert lifts[0] >= sdp._STALL
    assert (run.method, run.converged, run.rank) == ("mixing", True, _bp_rank(12) + 1)
    assert report.primal.vectors.shape == (12, run.rank)
    assert run.iterations < 100 and report.certified_optimal
    assert abs(report.dual.certified_bound - 37.0905924006685) <= 1e-10 * 37.0905924006685
    assert exact_psd(exact_slack(_w(STUCK.coefficients), report.dual.lam))


@pytest.mark.parametrize("k", [600, -600])
def test_scaled_stuck_run_lifts_at_the_same_check(monkeypatch, k):
    # the ascent, its floor and the lift's test all run on c 2^-e, so STUCK
    # 2^k takes STUCK's steps: the same lift, vectors and iterations, with
    # the value and bound scaled exactly.  The floor was fixed in c's own
    # units, so at 2^-600 every field lay below it and no row moved
    checks, lifts = _lifts(monkeypatch)
    ref = solve(STUCK, classical=False)
    at = lifts.copy()
    checks.clear()
    lifts.clear()
    report = solve(new_inequality("scaled", np.ldexp(STUCK.coefficients, k)), classical=False)
    assert lifts == at and len(at) == 1
    assert report.runs[0].iterations == ref.runs[0].iterations
    np.testing.assert_array_equal(report.primal.vectors, ref.primal.vectors)
    assert report.primal.value == math.ldexp(ref.primal.value, k)
    assert report.dual.certified_bound == math.ldexp(ref.dual.certified_bound, k)


@pytest.mark.parametrize("k", [600, -600])
def test_solve_primal_is_scale_invariant(k):
    # c 2^k takes c's steps in both directions: a block near 1e-300 used to
    # stop at iteration 1 from its random start, every field below the floor
    c = np.random.default_rng(9).integers(-3, 4, (6, 3)) * 1.0
    ref, sol = solve_primal(c, rank=4), solve_primal(np.ldexp(c, k), rank=4)
    assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
    np.testing.assert_array_equal(sol.vectors, ref.vectors)
    assert sol.value == math.ldexp(ref.value, k)
    # at 1e-300, not a power of two, the run read 5.65e-300 against 3.137e-299
    ref, report = (solve(new_inequality("c", s * c), classical=False) for s in (1.0, 1e-300))
    assert report.runs[0].iterations == ref.runs[0].iterations
    assert report.primal.value == pytest.approx(1e-300 * ref.primal.value, rel=1e-12)
    assert report.dual.certified_bound == pytest.approx(1e-300 * ref.dual.certified_bound,
                                                        rel=1e-12)


def test_huge_coefficients_do_not_overflow():
    # the row norms used to square entries above ~1e154 to inf.  Scaling c by
    # a power of two is exact, so the iterates match those of a scaled-down c
    ineq = new_inequality("big", [[1e300, 1.0], [1.0, -1.0]])
    c = ineq.coefficients
    small = np.ldexp(c, -980)
    sol, ref = solve_primal(c, rank=4), solve_primal(small, rank=4)
    assert (sol.iterations, sol.converged) == (ref.iterations, True)
    np.testing.assert_array_equal(sol.vectors, ref.vectors)
    assert sol.value == pytest.approx(1e300, rel=1e-12)
    lam = extract_dual(c, sol.vectors)
    np.testing.assert_array_equal(lam, np.ldexp(extract_dual(small, ref.vectors), 980))
    report = solve(ineq)
    assert report.primal.value == pytest.approx(1e300, rel=1e-12)
    assert report.classical_bound == pytest.approx(1e300, rel=1e-12)
    # the run's proof leaves a gap of up to 2^e _GAP_TARGET, about 1.3e-8 relative here
    bound = report.dual.certified_bound
    assert math.isfinite(bound)
    assert 0 <= report.gap <= mixing_gap_limit(c, bound)
    assert report.certified_optimal


@pytest.mark.parametrize("c", [[[1e308]], [[1.5e308]], [[1e308, 1.0], [1.0, -1.0]]])
def test_value_near_the_float_range_is_finite(c):
    # the primal value summed G * W before halving it, twice the value: it
    # came out inf, with a gap of -inf, against a finite certified bound
    top = float(np.abs(c).max())
    report = solve(new_inequality("big", c))  # a RuntimeWarning fails the test
    assert report.primal.value == pytest.approx(top, rel=1e-12)
    assert report.classical_bound == pytest.approx(top, rel=1e-12)
    # a mixing run's proof leaves a gap of up to 2^e _GAP_TARGET
    (run,) = report.runs
    bound = report.dual.certified_bound
    limit = 1e-12 * top if run.method == "spectral" else mixing_gap_limit(c, bound)
    assert math.isfinite(bound) and 0 <= report.gap <= limit
    assert report.certified_optimal


@pytest.mark.parametrize("c", [[[1e308, 1e308], [1e308, 1e308]], [[1.7e308, 1.7e308]]])
def test_value_beyond_the_float_range_is_rejected(c):
    # sigma_1 = 2e308 and 2.4e308: the spectral path's half of it used to
    # raise OverflowError; the value itself overflows, so NonFiniteEntry
    ineq = new_inequality("huge", c)
    with pytest.raises(NonFiniteEntry, match="primal value"):
        solve(ineq, classical=False)
    with pytest.raises(NonFiniteEntry):
        solve(ineq)


def test_mixing_value_beyond_the_float_range_is_rejected(monkeypatch):
    # the ascent runs on c scaled down; only the value it reports overflows
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 20)
    with pytest.raises(NonFiniteEntry, match="primal value"):
        solve_primal(np.ldexp(STUCK.coefficients, 1020), rank=6)


def test_relative_gap_is_over_max_coefficient():
    # max|c| <= 1 leaves the gap as it is; above, the gap is over max|c|
    for ineq in (chained(2), chained(7), gisin(6)):
        report = solve(ineq)
        assert report.relative_gap == report.gap
        assert report.certified_optimal is (report.gap <= sdp.OPTIMAL_GAP) is True
    half = solve(new_inequality("half", 0.5 * chained(3).coefficients))
    assert half.relative_gap == half.gap
    report = solve(new_inequality("neg", -3.0 * chained(3).coefficients))
    assert report.relative_gap == report.gap / 3.0


def test_run_fields():
    assert [f.name for f in dataclasses.fields(sdp.Run)] == [
        "rank", "iterations", "converged", "primal_value", "certified_bound", "gap", "method",
    ]


@pytest.mark.parametrize(
    "family, closed_form", [(chained, chained_quantum_bound), (gisin, gisin_quantum_bound)],
    ids=["chained", "gisin"],
)
def test_spectral_path_reaches_closed_forms(family, closed_form):
    # the paper's lambda-constant bound, attained in rank 2 with no sweep
    for n in range(2, 65):
        report = solve(family(n), classical=False)
        bound = closed_form(n)
        (run,) = report.runs
        assert (run.method, run.rank, run.iterations, run.converged) == ("spectral", 2, 0, True)
        assert (report.primal.iterations, report.primal.residual) == (0, 0.0)
        for value in (report.dual.certified_bound, report.primal.value):
            assert abs(value - bound) <= 1e-9 * max(1.0, bound)
        assert run.gap == report.gap <= sdp._GAP_TARGET * 2
        v = report.primal.vectors
        assert v.shape == (2 * n, 2)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "c, bound",
    [(np.ones((3, 5)), 15.0),
     (np.hstack([chained(4).coefficients] * 2), 2 * chained_quantum_bound(4)),
     (np.vstack([gisin(3).coefficients] * 3), 3 * gisin_quantum_bound(3))],
    ids=["ones-3x5", "chained-4-twice", "gisin-3-thrice"],
)
def test_spectral_path_on_rectangular_inputs(c, bound):
    # nA != nB: K scales Bob's singular vectors by sqrt(nB/nA).  Repeating a
    # side's settings repeats its optimal vectors, so the bound scales
    report = solve(new_inequality("rect", c), classical=False)
    assert [run.method for run in report.runs] == ["spectral"]
    assert lstsq_tight(c, _bp_rank(sum(c.shape)))
    assert abs(report.dual.certified_bound - bound) <= 1e-9 * bound
    assert abs(report.primal.value - bound) <= 1e-9 * bound


@pytest.mark.parametrize("family", [chained, gisin])
def test_family_spectral_decision_matches_least_squares(family):
    # the path is taken only where least squares for M, the general test of
    # whether the singular vectors carry a primal attaining the bound, accepts
    for n in range(1, 65):
        report = solve(family(n), classical=False)
        if report.runs[0].method == "spectral":
            assert lstsq_tight(family(n).coefficients, _bp_rank(2 * n)), n


def test_tight_non_isotropic_input_falls_through():
    # [[J_4, 0], [0, 4]], J_4 all ones: two games with sigma_1 = 4, attained
    # (least squares finds M = diag(4, 1) in the basis of the two games), but
    # K has four rows of norm 1/2 and one of norm 1 on each side.  The
    # spectral path takes only rows of one norm, so the ascent certifies it:
    # exactly PSD, within the gate's gap of the optimum 20
    c = np.zeros((5, 5))
    c[:4, :4] = 1.0
    c[4, 4] = 4.0
    ineq = new_inequality("two-games", c)
    report = solve(ineq, classical=False)
    (run,) = report.runs
    assert (run.method, report.certified_optimal) == ("mixing", True)
    assert lstsq_tight(c, run.rank)
    bound = report.dual.certified_bound
    assert 20.0 < bound <= 20.0 + mixing_gap_limit(c, bound)
    assert exact_psd(exact_slack(build_objective(ineq), report.dual.lam))


def test_tight_families_run_one_eigh_and_no_lstsq(monkeypatch):
    # chained and Gisin K have rows of one norm: only the eigh that gives
    # the singular pairs, and no least squares (game sums: test_properties.py)
    calls = {"eigh": 0, "lstsq": 0}
    for name in calls:
        routine = getattr(np.linalg, name)

        def counted(*args, _name=name, _routine=routine, **kwargs):
            calls[_name] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for family in (chained, gisin):
        for n in range(2, 17):
            calls.update(eigh=0, lstsq=0)
            report = solve(family(n), classical=False)
            assert report.runs[0].method == "spectral"
            assert calls == {"eigh": 1, "lstsq": 0}, (family, n)


FALL_THROUGH = [
    TIE,
    STUCK,
    new_inequality("zero-row", [[1, 1], [0, 0], [1, -1]]),
    new_inequality("2x3", [[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]]),
    chained(1),
    new_inequality("big", [[1e300, 1.0], [1.0, -1.0]]),
    new_inequality("random-16", np.random.default_rng(16).integers(-3, 4, (16, 16))),
    new_inequality("random-18", np.random.default_rng(18).integers(-3, 4, (18, 18))),
    new_inequality("identity-8", np.eye(8)),  # tight, but d = 8 exceeds the rank 7
]


def _count_certify(monkeypatch):
    # a mixing run without its gate's proof is certified by the public certify
    calls = []
    monkeypatch.setattr(sdp, "certify", lambda *a: calls.append(1) or certify(*a))
    return calls


# the runs that end without a proof: a zero c keeps certify's exact 0
UNPROVEN = {"chained-1": 1}


@pytest.mark.parametrize("ineq", FALL_THROUGH, ids=lambda ineq: ineq.name)
def test_non_tight_inputs_fall_through(monkeypatch, ineq):
    # the spectral bound is not attained (or c is zero): solve runs the
    # mixing ascent, solve_primal's at seed 0, which STUCK's lift leaves one
    # column wider.  The tightness test refuses before any certificate, and a
    # run that stops on its gate's proof reports it: only a run without one
    # certifies
    certified = _count_certify(monkeypatch)
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 200)
    report = solve(ineq, classical=False)
    assert {run.method for run in report.runs} == {"mixing"}
    assert len(certified) == UNPROVEN.get(ineq.name, 0)
    m = ineq.n_alice + ineq.n_bob
    sol = solve_primal(ineq.coefficients, _bp_rank(m))
    (run,) = report.runs
    assert run.rank == sol.vectors.shape[1] == _bp_rank(m) + (ineq is STUCK)
    assert (run.iterations, run.primal_value) == (sol.iterations, sol.value)


def test_certified_gap_refuses_what_a_loose_test_passes(monkeypatch):
    # chained-8 with one coefficient moved by 1e-4 passes a tightness test
    # loosened to 1e-2; the certified gap still refuses the spectral path,
    # and solve runs the ascent as with the test at its own tolerance
    c = chained(8).coefficients.copy()
    c[0, 0] += 1e-4
    ineq = new_inequality("moved", c)
    ref = solve(ineq, classical=False)
    certified = _count_certify(monkeypatch)
    valued = []
    value = sdp._value
    monkeypatch.setattr(sdp, "_value", lambda x, *a: valued.append(x.shape) or value(x, *a))
    monkeypatch.setattr(sdp, "_TIGHT_TOL", 1e-2)
    report = solve(ineq, classical=False)
    # the spectral attempt passed the test and valued its rank-2 primal, then
    # the mixing run valued its rank-7 one and reported its gate's proof:
    # neither called certify
    assert valued == [(8, 2), (8, _bp_rank(16))]
    assert certified == []
    assert report.runs == ref.runs
    assert exact_psd(exact_slack(_w(c), report.dual.lam))
    assert [run.method for run in report.runs] == ["mixing"]


@pytest.mark.parametrize(
    "ineq, scale",
    [(chained(8), 2.0**1000), (chained(8), 2.0**-1000), (gisin(8), 1e200)],
    ids=["chained-8-2^1000", "chained-8-2^-1000", "gisin-8-1e200"],
)
def test_spectral_path_on_scaled_inputs(ineq, scale):
    # the path runs on c scaled by a power of two, so a power-of-two scale
    # leaves every step unchanged; a scale that is not one moves the bound
    # by rounding
    ref = solve(ineq, classical=False)
    report = solve(new_inequality("scaled", scale * ineq.coefficients), classical=False)
    assert [run.method for run in report.runs] == ["spectral"]
    if math.frexp(scale)[0] == 0.5:
        assert report.primal.value == scale * ref.primal.value
        np.testing.assert_array_equal(report.primal.vectors, ref.primal.vectors)
    assert report.primal.value == pytest.approx(scale * ref.primal.value, rel=1e-14)
    assert report.dual.certified_bound == pytest.approx(
        scale * ref.dual.certified_bound, rel=1e-14)
    assert report.relative_gap <= sdp._GAP_TARGET


@pytest.mark.parametrize(
    "c",
    [chained(n).coefficients for n in (2, 8, 16)] + [gisin(n).coefficients for n in (3, 16)]
    + [np.ones((3, 5)), np.vstack([gisin(3).coefficients] * 3)],
    ids=["chained-2", "chained-8", "chained-16", "gisin-3", "gisin-16", "ones-3x5",
         "gisin-3-thrice"],
)
def test_spectral_path_forms_no_w(monkeypatch, c):
    # the proof runs on the smaller side's n x n Gram matrix: no m x m array
    # reaches a Cholesky factorization, and W is never built
    shapes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
    refuse_build_objective(monkeypatch)
    report = solve(new_inequality("c", c), classical=False)
    assert [run.method for run in report.runs] == ["spectral"]
    n = min(c.shape)
    assert shapes == [(n, n)]


@pytest.mark.parametrize("low, method", [(2.0**-49, "spectral"), (2.0**-30, "mixing")],
                         ids=["2^-49", "2^-30"])
def test_spectral_proof_does_not_trust_eigh(monkeypatch, low, method):
    # an eigh whose eigenvalues read low.  2^-49 is well inside the rounding
    # allowance: the Cholesky still completes, and the bound it proves lies
    # above the true sigma_1 sqrt(nA nB), not the low one eigh reported.
    # 2^-30 is not: the Cholesky fails, and solve runs the ascent
    eigh = np.linalg.eigh

    def low_eigh(a):
        vals, vecs = eigh(a)
        return vals * (1 - low), vecs

    monkeypatch.setattr(np.linalg, "eigh", low_eigh)
    for family in (chained, gisin):
        for n in range(2, 9):
            ineq = family(n)
            report = solve(ineq, classical=False)
            assert [run.method for run in report.runs] == [method]
            assert exact_psd(exact_slack(build_objective(ineq), report.dual.lam))


MIXED = FALL_THROUGH + [
    new_inequality(f"seeded-{k}", np.random.default_rng(k).integers(-3, 4, (k, k + 1)))
    for k in (2, 4, 7)
] + [new_inequality("gauss-6", np.random.default_rng(6).standard_normal((6, 6)))]


@pytest.mark.parametrize("ineq", MIXED, ids=lambda ineq: ineq.name)
def test_mixing_path_is_unchanged(monkeypatch, ineq):
    # where the spectral path is not taken, the one run's iterations and value
    # are solve_primal's, bit for bit.  A run that stops on its gate's proof
    # reports that proof: lambda' rounded up from it, a margin of 0.0, and a
    # gap of at most 2^e _GAP_TARGET + 2 sum(cap).  A run on a zero c is
    # certified by certify on its extracted lambda.  The reported
    # certificate is exactly PSD
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 200)
    report = solve(ineq, classical=False)
    c = ineq.coefficients
    bp = _bp_rank(sum(c.shape))
    cs, e, _ = sdp._scaled(c)
    (run,) = report.runs
    sol, proof = sdp._ascent(cs, e, bp, 0)
    ref = solve_primal(c, bp)
    assert sol.vectors.tobytes() == ref.vectors.tobytes()
    assert (run.method, run.iterations, run.primal_value) == ("mixing", ref.iterations, ref.value)
    if proof is None or not c.any():
        dual = certify(c, extract_dual(c, sol.vectors))
    else:
        lam = np.nextafter(np.ldexp(proof, e), np.inf)
        dual = sdp.DualCertificate(lam, 0.0, sdp._sum_up(lam))
        assert 0 <= run.gap <= mixing_gap_limit(c, run.certified_bound)
    assert run.certified_bound == dual.certified_bound
    np.testing.assert_array_equal(report.dual.lam, dual.lam)
    assert report.dual.feasibility_margin == dual.feasibility_margin
    assert report.primal.value == sol.value
    assert exact_psd(exact_slack(_w(c), report.dual.lam))


@pytest.mark.parametrize(
    "ineq, method",
    [(chained(8), "spectral"),
     (new_inequality("random-16", np.random.default_rng(16).integers(-3, 4, (16, 16))), "mixing")],
    ids=["spectral", "mixing"],
)
def test_solve_checks_and_scales_c_once(monkeypatch, ineq, method):
    # one check of c, one scaling and one read of max|c| per solve: the
    # classical scan, the spectral try, the ascent and the restart test share
    # the checked and scaled block.  random-16's classical scan reads |c| once
    # more, for the dtype of its scores (sum|c|); chained-8's is one product.
    # random-16's run stops on its gate's proof, so certify's fallback, which
    # checks and scales c as a public entry, is not reached
    calls = {"_block": 0, "_scaled": 0, "|c|": 0}
    for module, name in ((sdp, "_block"), (classical_module, "_block"), (sdp, "_scaled")):
        routine = getattr(module, name)

        def counted(*args, _name=name, _routine=routine):
            calls[_name] += 1
            return _routine(*args)

        monkeypatch.setattr(module, name, counted)
    c, absolute = ineq.coefficients, np.abs

    def read(x, *args, **kwargs):  # |c| itself, not the scaled block
        calls["|c|"] += np.shape(x) == c.shape and np.array_equal(x, c)
        return absolute(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", read)
    for classical in (False, True):
        calls.update(dict.fromkeys(calls, 0))
        report = solve(ineq, classical=classical)
        assert [run.method for run in report.runs] == [method]
        scans = classical and method == "mixing"
        assert calls == {"_block": 1, "_scaled": 1, "|c|": 1 + scans}


@pytest.mark.parametrize("ineq", MIXED, ids=lambda ineq: ineq.name)
def test_mixing_path_runs_no_eigvalsh(monkeypatch, ineq):
    # solve runs one ascent.  The spectral try's eigh is the one eigen routine
    # of a run proven by its gate, and none reaches eigvalsh.  Only STUCK
    # stalls, and takes one more eigh, of its slack, to lift a rank up
    calls = {"eigh": 0, "eigvalsh": 0, "_ascent": 0}
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (sdp, "_ascent")):
        routine = getattr(module, name)

        def counted(*args, _name=name, _routine=routine, **kwargs):
            calls[_name] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 200)
    report = solve(ineq, classical=False)
    assert calls == {"eigh": 1 + (ineq is STUCK), "eigvalsh": 0, "_ascent": 1}
    assert len(report.runs) == 1


@pytest.mark.parametrize(
    "ineq", [ineq for ineq in MIXED if ineq.name not in UNPROVEN and ineq is not STUCK],
    ids=lambda ineq: ineq.name)
def test_proof_costs_one_slack_and_one_cholesky(monkeypatch, ineq):
    # the check that stops the run factors one slack, the Schur complement on
    # the smaller side: one Cholesky of a min(nA, nB) square matrix, and no
    # m x m slack.  The certificate is that proof, so nothing is formed or
    # factored after it, and no check forms the m x m slack.  STUCK's lift,
    # between two checks, forms it once (test_stuck_run_lifts_once)
    counts, shapes = {"_slack": 0, "cholesky": 0}, []
    for module, name in ((sdp, "_slack"), (np.linalg, "cholesky")):
        routine = getattr(module, name)

        def counted(*args, _name=name, _routine=routine):
            counts[_name] += 1
            shapes.append(np.shape(args[0]))
            return _routine(*args)

        monkeypatch.setattr(module, name, counted)
    checks = []
    gate = sdp._gap_proven

    def record(*args):
        before = len(shapes)
        lam, proof = gate(*args)
        checks.append((proof is not None, shapes[before:]))
        return lam, proof

    monkeypatch.setattr(sdp, "_gap_proven", record)
    monkeypatch.setattr(sdp, "_spectral", lambda *args: None)
    (run,) = solve(ineq, classical=False).runs
    assert run.method == "mixing"
    proven, factored = checks[-1]
    assert proven and not any(stop for stop, _ in checks[:-1])
    n = min(ineq.coefficients.shape)
    assert factored == [(n, n)]
    assert counts["_slack"] == 0 and set(shapes) == {(n, n)}
    assert sum(len(f) for _, f in checks) == len(shapes)  # nothing outside a check


@pytest.mark.parametrize("ineq", MIXED, ids=lambda ineq: ineq.name)
def test_mixing_path_forms_no_w(monkeypatch, ineq):
    # the ascent, the gate and the certificate read c: W is never built
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 200)
    refuse_build_objective(monkeypatch)
    for classical in (False, True):
        assert {run.method for run in solve(ineq, classical=classical).runs} == {"mixing"}


GAUSS_TIE = new_inequality("gauss-tie", np.random.default_rng([3, 2, 1]).standard_normal((3, 3)))


def test_witness_tie_keeps_the_run():
    # the run reaches the classical optimum and reads the classical bound; the
    # witness, valued in another order, reads 1 ulp above both.  The run is
    # not below the classical bound, so its vectors are kept
    quantum, report = solve(GAUSS_TIE, classical=False), solve(GAUSS_TIE)
    (run,) = report.runs
    lhv = lhv_bound(GAUSS_TIE)
    x, y, c = lhv.witness_x, lhv.witness_y, GAUSS_TIE.coefficients
    witness = sdp._value(x[:, None], y[:, None], *sdp._scaled(c)[:2])
    assert witness == math.nextafter(run.primal_value, math.inf)
    assert report.primal.value == run.primal_value == lhv.value == quantum.primal.value
    np.testing.assert_array_equal(report.primal.vectors, quantum.primal.vectors)


def test_run_an_ulp_below_classical_takes_the_witness():
    # c = [[1, 0]]: the run reads 1 - 2^-53, the classical bound 1; the
    # reported primal is never below the classical bound
    report = solve(new_inequality("one-zero", [[1.0, 0.0]]))
    (run,) = report.runs
    assert run.primal_value == math.nextafter(1.0, 0.0)
    assert report.primal.value == report.classical_bound == 1.0
    np.testing.assert_array_equal(report.primal.vectors[:, 1:], 0.0)
