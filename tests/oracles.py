"""Independent brute-force oracles used to check the solver.

The row-by-row sweep is the Mixing-method ascent exactly as first written: one
vector at a time, in index order.  The library's block sweep must reproduce
its iterates.

The first-maximum enumeration is the classical scan exactly as first written:
one strategy at a time over all 2^k sign vectors, in int64 when the matrix is
integral.  The library's half-scan must reproduce its value and witnesses.

The chunked enumeration is the vectorized half-scan as first written: 1024
sign rows per matrix product.  Above a dozen settings it stands in for the
one-at-a-time scan, which is too slow there; the library's split-table scan
must give the same value and witnesses on integral input.

The stacked Anderson mix is the least-squares mix as first written, over 3-D
stacks of the history.  The normal-equation mix solves the same least-squares
problem through its k x k normal equations, over the same stacks, differenced
afresh.  The library keeps a ring of differences and updates its normal
matrix one row and column at a time; its mix must agree with both to
rounding.

The Kronecker-product generators are the Clifford generators as first
written, one np.kron chain per generator.  The index-arithmetic generators
are the same matrices formed densely from the library's per-row indices
(realization._pauli_terms), which realize uses to write its observables
without forming any generator; they must equal the Kronecker products and
satisfy the Clifford relations.

The eager parser is the command line's argument parser as first written,
with every subcommand's arguments added up front; the library adds a
subcommand's arguments when it first parses, and must parse, print help and
fail the same.

The objective (1/2) v^T W v from the full product W v is the value as first
written.  The library's sweep reads it off Bob's fields, which it forms
anyway, and must agree with it to rounding; the in-loop gap check forms the
two block fields once for lambda and the value.

The refusing build_objective replaces every binding of the function: a
library path that builds W fails the test that installed it.

Gisin's n-setting inequality has the Tsirelson bound n / sin(pi/2n): reversing
Bob's settings makes its coefficient block skew-circulant, whose largest
singular value is 1 / sin(pi/2n), and the multipliers are constant as in the
chained proof.  The spectral path must reach it.

The least-squares tightness test is the spectral path's test as first
written: with K the stacked top singular vectors of c, it solves
diag(K M K^T) = 1 for M by least squares at every d and accepts when the
residual is within the path's tolerance.  The library first tries M = s I,
which needs only the row norms of K; it must take the path on exactly the
inputs this test accepts.

The chained inequality's closed forms from the paper: its classical bound
2n - 2, explicit optimal angle vectors in a plane, and the all-equal dual
multipliers cos(pi/2n).  The solver, the certificate and the realization
must reproduce them; no library path needs them.

The cyclic Jacobi eigensolver is a symmetric eigensolver that shares no
code with LAPACK: the spectrum checks against the closed-form results, and
the tests of min_eigenvalue, compare the library against it.

The trace correlation is Tr(X Y^T)/d, the correlation on the canonical
maximally entangled state written without the state; the library contracts
the state itself and must agree with it.

The Gram matrix of a vector collection, G[i][j] = v_i . v_j, and the
correlation expression sum c[s][t] x_s . y_t evaluated straight from the
vectors, are the two sides of the identity (1/2) Tr(G W) = sum c[s][t]
x_s . y_t that build_objective must satisfy.

The textbook CHSH optimum, its Gram matrix and the multipliers 1/sqrt(2),
is a known primal-dual pair: the closed forms and the PSD test must agree
that it is feasible and optimal at 2 sqrt(2).

The exact PSD test reads a matrix of floats as the rationals they are and
runs an LDL^T elimination in fractions.Fraction, so it decides PSD with no
rounding at all.  A certificate's multipliers must pass it: diag(lambda) -
(W + W^T)/4, formed exactly, is PSD.

The mixing gap limit is the gap a mixing run's proof may leave, written from
its contract rather than its code: the proof's multipliers sum to the value
plus 2^e _GAP_TARGET, max|c| < 2^e, and twice the rounding allowance cap_i =
(m+2)^2 u x_i + m u of Rump's verified Cholesky test on the scaled
multipliers x, with a few ulps for rounding lambda' and the sums.

The rank-2 oracle maximizes the correlation expression over unit vectors
confined to a plane: Alice's first vector is pinned at angle 0 (global
rotations cancel), the remaining Alice angles are scanned on a grid, and
Bob's optimum is closed form (each y_t aligns with its column field, so the
value is the sum of the column-field norms).  A local refinement pass
sharpens the best grid point.  Nothing here touches the coordinate-ascent
solver.
"""

import argparse
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import tsirelson
from tsirelson.analytic import _check_n
from tsirelson.errors import DimensionMismatch, LengthMismatch
from tsirelson.linalg import symmetrize
from tsirelson.realization import _pauli_terms
from tsirelson.sdp import _GAP_TARGET, _TIGHT_TOL

OFFDIAG_TOL = 1e-13
MAX_SWEEPS = 100


def bob_best_value(c, alice):
    """max over Bob's unit vectors of sum_{s,t} c[s][t] x_s . y_t.

    alice: (nA, 2) array of unit vectors.  Equals sum_t ||sum_s c[s,t] x_s||.
    """
    fields = c.T @ alice  # (nB, 2)
    return float(np.linalg.norm(fields, axis=1).sum())


def _value_grid_1(c, thetas):
    # Alice = [(1,0), (cos t, sin t)]
    c0, c1 = c[0], c[1]
    cos = np.cos(thetas)
    vals = np.zeros_like(thetas)
    for t in range(c.shape[1]):
        sq = c0[t] ** 2 + c1[t] ** 2 + 2 * c0[t] * c1[t] * cos
        vals += np.sqrt(np.maximum(sq, 0.0))
    return vals


def rank2_max(c, step=1e-3):
    """Grid + refine maximum of the expression over planar unit vectors."""
    c = np.asarray(c, dtype=float)
    na = c.shape[0]
    if na == 1:
        return float(np.abs(c[0]).sum())
    if na == 2:
        thetas = np.arange(0.0, 2 * np.pi, step)
        vals = _value_grid_1(c, thetas)
        best = thetas[np.argmax(vals)]
        fine = best + np.linspace(-2 * step, 2 * step, 40001)
        fvals = _value_grid_1(c, fine)
        return float(fvals.max())
    if na == 3:
        return _rank2_max_3(c, step)
    raise ValueError("oracle supports up to 3 Alice settings")


def _value_grid_2(c, t1, t2):
    # t1 scalar or column, t2 row; broadcasting gives a grid of values
    c0, c1, c2 = c[0], c[1], c[2]
    vals = 0.0
    for t in range(c.shape[1]):
        sq = (
            c0[t] ** 2
            + c1[t] ** 2
            + c2[t] ** 2
            + 2 * c0[t] * c1[t] * np.cos(t1)
            + 2 * c0[t] * c2[t] * np.cos(t2)
            + 2 * c1[t] * c2[t] * np.cos(t1 - t2)
        )
        vals = vals + np.sqrt(np.maximum(sq, 0.0))
    return vals


def _rank2_max_3(c, step):
    thetas = np.arange(0.0, 2 * np.pi, step)
    best_val = -np.inf
    best = (0.0, 0.0)
    chunk = 64
    for lo in range(0, thetas.size, chunk):
        t1 = thetas[lo : lo + chunk][:, None]
        vals = _value_grid_2(c, t1, thetas[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best_val:
            best_val = float(vals[i, j])
            best = (float(t1[i, 0]), float(thetas[j]))
    fine = np.linspace(-2 * step, 2 * step, 801)
    t1 = (best[0] + fine)[:, None]
    t2 = (best[1] + fine)[None, :]
    vals = _value_grid_2(c, t1, t2)
    return float(vals.max())


def rowwise_sweeps(w, v, max_iter, tol):
    """One-vector-at-a-time ascent from the unit rows v (updated in place).

    Each sweep sets v_i to the normalized field g_i = sum_j W[i][j] v_j in
    index order, leaving v_i untouched when ||g_i|| < 1e-14.  Returns
    (sweeps, residual, converged), where the residual is the largest
    displacement in the last sweep.
    """
    w = np.asarray(w, dtype=float)
    residual = np.inf
    for sweep in range(1, max_iter + 1):
        residual = 0.0
        for i in range(w.shape[0]):
            g = w[i] @ v
            ng = np.linalg.norm(g)
            if ng < 1e-14:
                continue
            new = g / ng
            disp = np.linalg.norm(new - v[i])
            if disp > residual:
                residual = disp
            v[i] = new
        if residual < tol:
            return sweep, residual, True
    return max_iter, residual, False


def _value(w, v):
    """The objective (1/2) v^T W v of the rows v."""
    return 0.5 * float(np.vdot(w @ v, v))


def first_max_enumeration(c):
    """First maximizer of sum_t |(x @ c)_t| over all x in {-1,+1}^k, in index order.

    Strategy idx has x_s = -1 where bit s of idx is set.  Returns
    (value, x, y) with y the sign of each column sum (+1 on a zero sum).
    """
    # rows are enumerated; entries exact int64 when integral and size*max|c| < 2^53
    integral = np.all(c == np.round(c)) and np.abs(c).max() < 2.0**53 / c.size
    mat = np.round(c).astype(np.int64) if integral else c
    k, _ = mat.shape
    best_val = None
    best_x = None
    for idx in range(1 << k):
        x = np.array([1 if (idx >> s) & 1 == 0 else -1 for s in range(k)], dtype=mat.dtype)
        val = np.abs(x @ mat).sum()
        if best_val is None or val > best_val:
            best_val = val
            best_x = x
    cols = best_x @ mat
    y = np.where(cols >= 0, 1, -1).astype(best_x.dtype)
    return best_val, best_x, y


def first_max_lhv(c):
    """first_max_enumeration oriented like lhv_bound: the smaller side is scanned.

    Returns (value, witness_x, witness_y) with x per row and y per column of c.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[1] < c.shape[0]:
        val, y, x = first_max_enumeration(c.T)
    else:
        val, x, y = first_max_enumeration(c)
    return float(val), x, y


def chunked_enumeration(c):
    """First maximizer over the half with the last sign +1, 1024 strategies per product.

    Oriented like lhv_bound: the smaller side is scanned.  Returns
    (value, witness_x, witness_y) with x per row and y per column of c, or
    (inf or nan, None, None) where the scores overflow.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[1] < c.shape[0]:
        val, y, x = chunked_enumeration(c.T)
        return val, x, y
    k = c.shape[0]
    half = 1 << (k - 1)
    best_val, best_x = -np.inf, None
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, half, 1024):
            idx = np.arange(start, min(start + 1024, half))
            x = 1.0 - 2.0 * ((idx[:, None] >> np.arange(k)) & 1)
            vals = np.abs(x @ c).sum(axis=1)
            i = int(np.argmax(vals))  # lands on a NaN or inf if there is one
            if not np.isfinite(vals[i]):
                return float(vals[i]), None, None
            if vals[i] > best_val:
                best_val, best_x = vals[i], x[i].copy()
    return float(best_val), best_x, np.where(best_x @ c >= 0, 1.0, -1.0)


def refuse_build_objective(monkeypatch):
    """Make build_objective raise under each name that binds it."""
    def refuse(*args):
        raise AssertionError("build_objective ran")

    for module in (tsirelson, tsirelson.inequality):
        monkeypatch.setattr(module, "build_objective", refuse)


def stacked_anderson(history):
    """Type-II Anderson mix over pairs (f_i, F(x_i)) of m x r arrays.

    f_i = F(x_i) - x_i.  Returns F(x_k) - dG gamma as an m x r array, gamma
    minimizing ||f_k - dF gamma|| over the differences of consecutive
    residuals.
    """
    f, fx = map(np.stack, zip(*history))
    f = f.reshape(len(history), -1)
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    return fx[-1] - np.tensordot(gamma, np.diff(fx, axis=0), axes=1)


def normal_anderson(history):
    """stacked_anderson with gamma from the normal equations (dF dF^T) gamma = dF f_k.

    Returns None where those are singular or gamma is not finite.
    """
    f, fx = map(np.stack, zip(*history))
    f = f.reshape(len(history), -1)
    df = np.diff(f, axis=0)
    try:
        gamma = np.linalg.solve(df @ df.T, df @ f[-1])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(gamma)):
        return None
    return fx[-1] - np.tensordot(gamma, np.diff(fx, axis=0), axes=1)


def mixing_gap_limit(c, bound):
    """2^e _GAP_TARGET + 2 sum(cap), plus rounding, for a certified bound of c.

    The scaled multipliers x sum to about bound / 2^e, so sum(cap) is at most
    (m+2)^2 u bound / 2^e + m^2 u; 4 m u sum|c| covers the roundings in lambda',
    its upward sum, and the value read in another order than the gate's.
    """
    c = np.asarray(c, dtype=float)
    m, e, u = sum(c.shape), int(np.frexp(np.abs(c).max())[1]), 2.0**-53
    cap = (m + 2) ** 2 * u * bound + np.ldexp(m * m * u, e)
    return float(np.ldexp(_GAP_TARGET, e) + 2 * cap + 4 * m * u * np.abs(c).sum())


def gisin_quantum_bound(n):
    """Tsirelson bound n / sin(pi/2n) of Gisin's n-setting inequality."""
    return n / np.sin(np.pi / (2 * n))


def gisin_classical_bound(n):
    """Local-hidden-variable bound ceil(n^2 / 2) of Gisin's n-setting inequality.

    Stated without proof (Gisin, quant-ph/0702021); an oracle by citation only.
    """
    return float(-(-n * n // 2))


def lstsq_tight(c, rank):
    """True iff some M solves diag(K M K^T) = 1 by least squares, the d top
    singular pairs of c in K = [U_1; sqrt(nB/nA) V_1], with 0 < d <= rank."""
    c = np.asarray(c, dtype=float)
    na, nb = c.shape
    a = np.ldexp(c.T if nb < na else c, -int(np.frexp(np.abs(c).max())[1]))
    vals, vecs = np.linalg.eigh(a @ a.T)
    top = vals[-1]
    d = int(np.count_nonzero(vals >= top * (1 - _TIGHT_TOL)))
    if not (top > 0 and d <= rank):
        return False
    near = vecs[:, -d:]
    far = a.T @ near / np.sqrt(top)
    u, v = (far, near) if nb < na else (near, far)
    k = np.vstack([u, np.sqrt(nb / na) * v])
    eqs = (k[:, :, None] * k[:, None, :]).reshape(len(k), d * d)
    x = np.linalg.lstsq(eqs, np.ones(len(k)))[0]
    return bool(np.abs(eqs @ x - 1.0).max() <= _TIGHT_TOL)


def chained_classical_bound(n):
    """Local-hidden-variable bound 2n - 2 of the chained inequality."""
    _check_n(n)
    return float(2 * n - 2)


def chained_primal_vectors(n):
    """Optimal unit vectors in R^{2n}: x_k at angle pi(2k-2)/2n, y_k at pi(2k-1)/2n.

    Every term of the chained expression then contributes cos(pi/2n).
    """
    _check_n(n)
    xs = np.zeros((n, 2 * n))
    ys = np.zeros((n, 2 * n))
    for k in range(1, n + 1):
        phi = np.pi / (2 * n) * (2 * k - 2)
        psi = np.pi / (2 * n) * (2 * k - 1)
        xs[k - 1, :2] = (np.cos(phi), np.sin(phi))
        ys[k - 1, :2] = (np.cos(psi), np.sin(psi))
    return xs, ys


def chained_dual_lambda(n):
    """Feasible dual multipliers cos(pi/2n) * (1,...,1), length 2n."""
    _check_n(n)
    return np.full(2 * n, np.cos(np.pi / (2 * n)))


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def clifford_generators(n):
    """N pairwise anticommuting Hermitian involutions of dimension 2^floor(N/2).

    Generator 2j-1 is Z^{(j-1)} (x) X (x) I..., generator 2j the same with Y,
    over m = floor(N/2) qubit factors; for odd N the last is Z on every qubit.
    """
    rows, terms = _pauli_terms(n)
    gens = np.zeros((n, len(rows), len(rows)), dtype=complex)
    for j, (cols, x_sign, y_sign) in enumerate(terms):
        gens[2 * j].real[rows, cols] = x_sign
        if 2 * j + 1 < n:
            gens[2 * j + 1].imag[rows, cols] = y_sign
    return list(gens)


def kron_clifford_generators(n):
    """Generator 2j-1 is Z^{(j-1)} (x) X (x) I..., generator 2j the same with Y.

    Over floor(N/2) qubit factors; for odd N the last generator is Z on every
    qubit (the 1 x 1 identity when N = 1).
    """
    qubits = n // 2
    gens = []
    for k in range(n):
        j = k // 2  # qubit carrying the X/Y factor
        if j == qubits:  # the parity string
            factors = [_PAULI_Z] * qubits
        else:
            factors = [_PAULI_Z] * j
            factors.append(_PAULI_X if k % 2 == 0 else _PAULI_Y)
            factors.extend([_ID2] * (qubits - j - 1))
        mat = np.eye(1, dtype=complex)
        for f in factors:
            mat = np.kron(mat, f)
        gens.append(mat)
    return gens


def eager_parser():
    parser = argparse.ArgumentParser(
        prog="tsirelson",
        description="Quantum and classical bounds for two-party correlation "
        "Bell inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, n=True, file=True, formats=("text", "json")):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument(
            "--inequality",
            choices=["chained", "chsh", "gisin", "file"],
            default="chained",
        )
        if n:
            p.add_argument("--n", type=int, default=2)
        if file:
            p.add_argument("--file", dest="file_path")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", dest="output_path")
        return p

    add("bound", "primal + certified dual bound")
    p_cert = add("certify", "certify a lambda vector from file")
    p_cert.add_argument("--lambda-file", dest="lambda_file", required=True)
    add("classical", "exact LHV bound with witnesses")
    add("realize", "observables achieving the bound")
    # spectrum reads no file, and table neither a file nor --n
    add("spectrum", "closed-form chained spectrum", file=False)
    p_table = add("table", "bound table over a range of n", n=False, file=False,
                  formats=("text", "json", "csv"))
    p_table.add_argument("--n-range", dest="n_range", default="2..8")
    return parser


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray  # sorted ascending
    eigenvectors: np.ndarray  # orthonormal columns, column k pairs with eigenvalue k


def _offdiag_norm(a):
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def sym_eigen(s):
    """Full spectral decomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Sweeps rotate away every off-diagonal pair in row order until the
    off-diagonal Frobenius norm drops below 1e-13 * ||S||_F, or raises
    RuntimeError after 100 sweeps.
    """
    a = symmetrize(s)
    n = a.shape[0]
    q = np.eye(n)
    norm_s = np.linalg.norm(a)
    if n == 1 or norm_s == 0.0:
        return _sorted_spectrum(np.diag(a).copy(), q)
    threshold = OFFDIAG_TOL * norm_s
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) <= threshold:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apq = a[p, r]
                if abs(apq) <= 1e-300:
                    continue
                diff = a[r, r] - a[p, p]
                if abs(apq) < abs(diff) * 1e-36:
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                # rotate rows/columns p and r
                row_p = a[p, :].copy()
                row_r = a[r, :].copy()
                a[p, :] = c * row_p - sn * row_r
                a[r, :] = sn * row_p + c * row_r
                col_p = a[:, p].copy()
                col_r = a[:, r].copy()
                a[:, p] = c * col_p - sn * col_r
                a[:, r] = sn * col_p + c * col_r
                qp = q[:, p].copy()
                qr = q[:, r].copy()
                q[:, p] = c * qp - sn * qr
                q[:, r] = sn * qp + c * qr
    else:
        resid = _offdiag_norm(a)
        if resid > threshold:
            raise RuntimeError(
                f"Jacobi sweep cap reached, off-diagonal residual {resid:.3e}"
            )
    return _sorted_spectrum(np.diag(a).copy(), q)


def _sorted_spectrum(vals, vecs):
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    # deterministic sign: first component of magnitude > 1e-12 made positive
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, k] = -col
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def gram_from_vectors(vectors):
    """Gram matrix G[i][j] = v_i . v_j of an equal-length vector collection."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise LengthMismatch("empty vector collection")
    length = vs[0].shape[0]
    if any(v.ndim != 1 or v.shape[0] != length for v in vs):
        raise LengthMismatch("vectors must all have the same length")
    b = np.stack(vs)
    return symmetrize(b @ b.T)


def objective_value(ineq, xs, ys):
    """sum_{s,t} c[s][t] (x_s . y_t), evaluated directly from the vectors."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.einsum("st,sk,tk->", ineq.coefficients, xs, ys))


def chsh_known_solution():
    """The textbook optimal CHSH pair: Gram matrix G' and multipliers 1/sqrt(2)."""
    a = 1.0 / np.sqrt(2.0)
    g = symmetrize(
        [
            [1.0, 0.0, a, a],
            [0.0, 1.0, a, -a],
            [a, a, 1.0, 0.0],
            [a, -a, 0.0, 1.0],
        ]
    )
    lam = np.full(4, a)
    return g, lam


def correlation_trace(x, y):
    """Tr(X Y^T)/d, valid on the canonical maximally entangled state."""
    d = x.shape[0]
    if y.shape != (d, d):
        raise DimensionMismatch("observable dimensions disagree")
    return float(np.trace(x @ y.T).real / d)


def exact_slack(w, lam):
    """diag(lam) - (W + W^T)/4 as a list of rows of Fractions, formed exactly."""
    w = [[Fraction(v) for v in row] for row in np.asarray(w, dtype=float).tolist()]
    lam = [Fraction(v) for v in np.asarray(lam, dtype=float).tolist()]
    m = len(w)
    return [[(lam[i] if i == j else 0) - (w[i][j] + w[j][i]) / 4 for j in range(m)]
            for i in range(m)]


def exact_psd(a):
    """True iff the symmetric matrix a, read exactly as rationals, is PSD.

    LDL^T elimination in index order: a negative pivot fails, and a zero
    pivot needs the rest of its row to be zero; otherwise its Schur
    complement is eliminated, and a is PSD iff every pivot passes.
    """
    a = [[Fraction(v) for v in row] for row in a]
    m = len(a)
    for k in range(m):
        d = a[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(a[k][k + 1:]):
                return False
            continue
        for i in range(k + 1, m):
            f = a[i][k] / d
            if f:
                for j in range(k + 1, m):
                    a[i][j] -= f * a[k][j]
    return True
