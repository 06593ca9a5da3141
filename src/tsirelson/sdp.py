"""Unit-diagonal SDP solver with dual certification, on the coefficient block.

The objective of an nA x nB coefficient block c is (1/2) Tr(G W), W =
[[0, c], [c^T, 0]].  A public routine checks c once (_block) and scales it
once (_scaled); the private ones take cs = c 2^-e and e.  The only m x m
array formed is the slack diag(lambda) - W/2, for certify's shift and for a
stalled ascent's lift.

solve first tries the paper's proof (_spectral): constant multipliers from
the top singular value of c, attained when its top singular vectors,
stacked, have rows of one norm.  If so, solve reports one run of method
"spectral", proven by one Cholesky factorization of the smaller side's
Gram matrix; if not, the ascent below ("mixing").

The primal "maximize (1/2) Tr(G W) s.t. G >= 0, g_ii = 1" is attacked in the
low-rank factorized form: m unit vectors of length rank, Alice's first,
which solve sets to min(m, ceil(sqrt(2m)) + 1), the Barvinok-Pataki bound.
The plain map is a sweep of block-coordinate ascent, the Mixing method:
each vector is set to its closed-form maximizer in a fixed order, so the
objective never decreases.  W couples no two of Alice's vectors and no two
of Bob's, so a sweep is two products, Alice's fields c @ y and then Bob's
c^T @ x, and the iterate is the same as updating one vector at a time.  A
sweep also returns the objective of its iterate, read off the fields it
forms.  The sweep is Anderson-accelerated (Walker & Ni, 2011): a ring keeps
the last few residual and sweep differences with their running normal
matrix, the mixing weights solve those k x k normal equations, a singular
system is a rejected mix, and a mixed step is kept only if it does not
lower the objective.  Any lambda whose diag(lambda) - W/2 is PSD bounds the
objective by Tr(diag(lambda)) (weak duality).  certify proves PSD in
floating point as the spectral path does, by one Cholesky factorization of
an n x n matrix, n = min(nA, nB), with a rounding allowance (Rump, BIT 46,
2006).  The ascent stops once that test proves its iterate within a small
gap of optimal, and the multipliers it proved are the run's certificate.  A
run stalled at a saddle (lambda sums to the value, its slack is not PSD)
moves one rank up along the slack's least eigenvector (Journee, Bach, Absil
& Sepulchre, 2010).  A run with no proof (capped, or a zero c) is certified
by certify, as any lambda is.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import _lhv
from .errors import InvalidRank, LengthMismatch, NonFiniteEntry
from .inequality import _block
from .linalg import min_eigenvalue

DEFAULT_MAX_ITER = 10000
OPTIMAL_GAP = 1e-5  # threshold on the gap relative to max(1, max|c|)
LIFT_GAP = 1e-4  # threshold on m |mu|, mu the stalled slack's least eigenvalue, over max|c|

_DEPTH = 5  # Anderson history: the last _DEPTH points and their sweeps
_GAP_TARGET = 1e-8  # certified gap, in the scaled c, that stops the ascent
_RESIDUAL_TOL = 1e-10  # largest per-vector move of a sweep that stops it
_CHECK_EVERY = 10  # largest step between gap checks
_STALL = 6  # gap checks in a row that fail at a fixed point: a stall
_TIGHT_TOL = 1e-9  # relative: sigma_1's multiplicity, and the spectral test's residual
_U = 2.0**-53  # unit roundoff of float64


@dataclass(frozen=True)
class PrimalSolution:
    vectors: np.ndarray  # m x r, unit rows
    value: float
    iterations: int
    residual: float
    converged: bool = True


@dataclass(frozen=True)
class DualCertificate:
    lam: np.ndarray  # diag(lam) - W/2 PSD in exact arithmetic, proven on an n x n Schur complement
    feasibility_margin: float  # minus the shift applied to the input: 0.0, or min eig < 0
    certified_bound: float


@dataclass(frozen=True)
class Run:
    """One primal ascent and its certificate, as solve reports it."""

    rank: int  # columns of the returned vectors
    iterations: int
    converged: bool
    primal_value: float
    certified_bound: float
    gap: float  # certified_bound - primal_value
    method: str  # "spectral" or "mixing"


@dataclass(frozen=True)
class BoundReport:
    name: str
    primal: PrimalSolution
    dual: DualCertificate
    gap: float
    relative_gap: float  # gap / max(1, max|c|): the solver is accurate to that scale
    classical_bound: float | None = None
    runs: tuple = ()  # the one Run

    @property
    def certified_optimal(self):
        return self.relative_gap <= OPTIMAL_GAP


def _row_norms(x, keepdims=False):
    """np.linalg.norm(x, axis=1, keepdims=keepdims) of a real x, bit for bit.

    It is the expression norm evaluates for ord=None along one axis, without
    norm's argument handling.
    """
    return np.sqrt(np.add.reduce(x * x, axis=1, keepdims=keepdims))


def _initial_vectors(m, rank, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, rank))
    v /= _row_norms(v, keepdims=True)
    return v


def _scaled(c, least=-math.inf):
    """(c 2^-e, e, max|c|), max|c| 2^-e in [0.5, 1), e = 0 if c == 0, or e = least if larger:
    exact, and it keeps the squares inside _row_norms from overflowing above ~1e154."""
    big = float(np.abs(c).max())
    e = max(math.frexp(big)[1], least)
    return np.ldexp(c, -e), e, big


def _fields(cs, cts, v):
    """W v at the rows v = [x; y]: Alice's fields cs @ y over Bob's cts @ x."""
    na = len(cs)
    return np.concatenate([cs @ v[na:], cts @ v[:na]])


def _sweep(cs, cts, v, floor):
    """One Mixing-method sweep over the unit rows v = [x; y], in place; the plain map.

    Alice's rows become their normalized fields cs @ y, then Bob's cts @ x
    at Alice's new rows, as one row at a time would (W couples no two rows
    of a block); a row whose field norm is below floor is left untouched.
    Returns the objective sum(cs * (x y^T)), read off Bob's fields.
    """
    na = len(cs)
    x, y = v[:na], v[na:]
    g = cs @ y
    ng = _row_norms(g, keepdims=True)
    np.divide(g, ng, out=x, where=ng >= floor)
    h = cts @ x
    nh = _row_norms(h, keepdims=True)
    new = np.divide(h, nh, out=y, where=nh >= floor)
    return float(np.vdot(new, h))


class _Anderson:
    """Type-II Anderson mixing (Walker & Ni, 2011) over a ring of differences.

    The points are flattened pairs (f_i, F(x_i)) of a sweep F(x_i) and its
    residual f_i = F(x_i) - x_i.  The ring keeps the last point, up to
    _DEPTH - 1 rows of the differences dF and dG of consecutive residuals
    and sweeps, and the normal matrix dF dF^T, one row and column of which
    a new point rewrites.
    """

    def __init__(self, n):
        self.df = np.empty((_DEPTH - 1, n))
        self.dg = np.empty((_DEPTH - 1, n))
        self.normal = np.empty((_DEPTH - 1, _DEPTH - 1))
        self.clear()

    def clear(self):
        self.f = self.fx = None
        self.k = 0  # rows of differences, in slots 0..k-1
        self.slot = 0  # the slot the next difference overwrites

    def push(self, f, fx):
        f, fx = f.reshape(-1), fx.reshape(-1)
        if self.f is not None:
            s = self.slot
            np.subtract(f, self.f, out=self.df[s])
            np.subtract(fx, self.fx, out=self.dg[s])
            k = self.k = min(self.k + 1, _DEPTH - 1)
            self.slot = (s + 1) % (_DEPTH - 1)
            self.normal[s, :k] = self.normal[:k, s] = self.df[:k] @ self.df[s]
        self.f, self.fx = f, fx

    def mix(self):
        """F(x_k) - dG^T gamma, flattened, or None: a rejected mix.

        gamma minimizes ||f_k - dF^T gamma|| through the k x k normal
        equations (dF dF^T) gamma = dF f_k.  The mix is rejected when they
        are singular or gamma is not finite.
        """
        k = self.k
        try:
            gamma = np.linalg.solve(self.normal[:k, :k], self.df[:k] @ self.f)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(gamma).all():
            return None
        return self.fx - gamma @ self.dg[:k]


def _gram_proven(k, g, x, terms, grow=1.0):
    """(cap, delta), or None: the library's one PSD proof, of diag(x + 2 cap + delta) - k k^T.

    g = fl(k k^T), overwritten, has at most terms roundings an entry; cap is grow
    times Rump's allowance for diag(x + cap) - g (certify); delta = 2 terms u (r
    + 1), r the largest row sum of |k| |k|^T, bounds the norm of |g - k k^T| <=
    gamma_terms |k| |k|^T (Higham, 2002, 3.5), with 1 for underflow.
    """
    neg = -g.diagonal()
    np.negative(g, out=g)
    cap = _allowance(abs(x) - neg, len(neg), grow)
    np.fill_diagonal(g, x + cap + neg)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    b = np.abs(k)
    return cap, 2 * terms * _U * (float((b @ b.sum(axis=0)).max()) + 1.0)


def _slack(cs, d):
    """diag(d) - W/2 for W = [[0, cs], [cs^T, 0]]: the only m x m array, for certify's
    shift and a stalled ascent's lift.  The zero blocks hold -0.0, W's zeros
    negated: eigvalsh's reflectors, and so the shift, read the sign of a zero."""
    na, nb = cs.shape
    s = np.full((na + nb, na + nb), -0.0)
    np.multiply(cs, -0.5, out=s[:na, na:])
    s[na:, :na] = s[:na, na:].T
    np.fill_diagonal(s, d)
    return s


def _proven(cs, x, grow=1.0):
    """Multipliers (p, y) >= x, Alice's first, with diag - W/2 PSD, or None: y on the
    larger side, p = x_s + 2 cap + delta on the Schur complement (certify); k's
    sqrt and division add four roundings to each entry of k k^T."""
    na, nb = cs.shape
    flip = nb < na  # the smaller side is Bob's
    a, xs, xl = (cs.T, x[na:], x[:na]) if flip else (cs, x[:na], x[na:])
    y = xl + _allowance(abs(xl), len(x), grow)
    if not (y > 0).all():
        return None
    k = a / (2 * np.sqrt(y))
    if (proof := _gram_proven(k, k @ k.T, xs, a.shape[1] + 4, grow)) is None:
        return None
    p = xs + proof[0] + proof[0] + proof[1]
    return np.concatenate([y, p] if flip else [p, y])


def _gap_proven(cs, cts, v):
    """(lambda, proof): extract_dual(cs, v), or None off a fixed point, and the scaled
    multipliers that prove v within _GAP_TARGET of optimal, or None.

    x = lambda + t, t = (_GAP_TARGET - (sum(lambda) - value)) / m, sums to the
    value plus _GAP_TARGET; where t >= 0 (a fixed point) _proven tests it as
    certify does.  cs is scaled, so lambda is half the row norms of the fields
    W v, formed once here for lambda and the value.
    """
    g = _fields(cs, cts, v)
    lam = 0.5 * _row_norms(g)
    t = (_GAP_TARGET - (float(np.sum(lam)) - 0.5 * float(np.vdot(g, v)))) / len(v)
    if not t >= 0:  # a NaN slack proves nothing
        return None, None
    return lam, _proven(cs, lam + t)


def solve_primal(c, rank, seed=0):
    """Anderson-accelerated block-coordinate ascent over unit vectors v_1..v_m.

    The plain map F is one sweep (_sweep) of c's m = nA + nB rows, Alice's
    first, which also returns the objective of the point it sweeps.  Each
    iteration applies it to the iterate v, adds the pair (F(v) - v, F(v)) to
    the ring of the last _DEPTH points (_Anderson), and mixes them with
    weights from the normal equations of the residual differences; it
    renormalizes the rows of the mixed point and sweeps once more.  The
    mixed point is kept, and joins the ring, only if its value is not below
    that of F(v), so values along the iterates never decrease; otherwise, or
    when the normal equations are singular, F(v) is kept and the ring
    cleared.  Stops when the residual, the largest row norm of F(v) - v (the
    plain sweep's largest per-vector displacement), falls below
    _RESIDUAL_TOL, or when a check (_gap_proven) after iterations 4, 8, 16,
    then every _CHECK_EVERY, proves the iterate within _GAP_TARGET of
    optimal.  After _STALL checks in a row that fail at a fixed point (the
    multipliers sum to the value, but S = diag(lambda) - W/2 is not PSD),
    one eigh of S gives its least eigenpair (mu, u); if m |mu| > LIFT_GAP
    max|c|, the ascent goes on from the rows of [v, u/10], renormalized, so
    the vectors returned may have more than rank columns.  After
    DEFAULT_MAX_ITER iterations, each of at most two sweeps, it returns the
    last iterate and residual with converged=False.  Raises InvalidRank
    unless rank >= 2, EmptyMatrix unless c is a non-empty 2-d array, and
    NonFiniteEntry when c has a NaN or infinite entry or the value
    overflows.  Everything runs on c scaled by a power of two, so c and c
    2^k take the same steps while neither has a subnormal entry.
    """
    if rank < 2:
        raise InvalidRank(f"rank must be >= 2, got {rank}")
    cs, e, _ = _scaled(_block(c))
    return _ascent(cs, e, rank, seed)[0]


def _ascent(cs, e, rank, seed):
    """solve_primal on cs = c 2^-e, and the proof (_gap_proven) it stopped on, or
    None; a residual stop is checked once, a run that hits the cap is not."""
    m = sum(cs.shape)
    v = _initial_vectors(m, rank, seed)
    floor = 1e-14  # on the fields of cs, whose max|cs| is in [1/2, 1)
    # products with a contiguous c^T equal those on W's Bob x Alice view bit
    # for bit, so the iterates are those of the ascent on W; the view cs.T's are not
    cts = np.ascontiguousarray(cs.T)
    ring = _Anderson(m * rank)
    check, stalled = 4, 0
    for it in range(1, DEFAULT_MAX_ITER + 1):
        fv = v.copy()
        value = _sweep(cs, cts, fv, floor)
        f = fv - v
        residual = math.sqrt(float((f**2).sum(axis=1).max()))
        if residual < _RESIDUAL_TOL:
            return _finish(cs, fv, e, it, residual, True), _gap_proven(cs, cts, fv)[1]
        ring.push(f, fv)
        v = fv
        if ring.k:
            mixed = ring.mix()
            if mixed is not None:
                mixed = mixed.reshape(v.shape)
                mixed /= _row_norms(mixed, keepdims=True)
                y = mixed.copy()
                mixed_value = _sweep(cs, cts, y, floor)
            if mixed is not None and mixed_value >= value:
                v = y
                ring.push(y - mixed, y)
            else:
                ring.clear()
        if it == check:
            check += min(check, _CHECK_EVERY)
            lam, proof = _gap_proven(cs, cts, v)
            if proof is not None:
                return _finish(cs, v, e, it, residual, True), proof
            stalled = 0 if lam is None else stalled + 1
            if stalled == _STALL:
                stalled = 0
                mu, u = np.linalg.eigh(_slack(cs, lam))
                if m * -mu[0] > LIFT_GAP * float(np.abs(cs).max()):
                    v = np.hstack([v, 0.1 * u[:, :1]])
                    v /= _row_norms(v, keepdims=True)
                    ring = _Anderson(v.size)
    return _finish(cs, v, e, it, residual, False), None


def _finish(cs, v, e, iterations, residual, converged):
    """The PrimalSolution at unit rows v = [x; y], of value sum(c * (x y^T))."""
    value = _value(v[:len(cs)], v[len(cs):], cs, e)
    return PrimalSolution(v, value, iterations, float(residual), converged)


def _value(x, y, cs, e):
    """sum(c * (x y^T)) for unit rows x, y: summed on cs = c 2^-e, where every partial
    sum stays below nA nB, then scaled by 2^e, so NonFiniteEntry only if the value overflows."""
    g = x @ y.T
    g *= cs
    try:
        return math.ldexp(float(np.sum(g)), e)
    except OverflowError:
        raise NonFiniteEntry("primal value overflows the float range") from None


def extract_dual(c, vectors):
    """Multipliers lambda_i = (1/2) ||sum_j W[i][j] v_j||, W = [[0, c], [c^T, 0]].

    vectors has nA + nB rows, Alice's first; so has lambda.  At a fixed point
    of solve_primal, sum_i lambda_i equals the primal value (complementary
    slackness), so a feasible lambda certifies optimality.  Raises EmptyMatrix
    unless c is a non-empty 2-d array, LengthMismatch unless vectors has nA +
    nB rows, and NonFiniteEntry when c or vectors has a NaN or infinite entry.
    """
    c, v = _block(c), np.asarray(vectors, dtype=float)
    if v.ndim != 2 or len(v) != sum(c.shape):
        raise LengthMismatch(f"vectors have shape {v.shape}, expected {sum(c.shape)} rows")
    if not np.isfinite(v).all():
        raise NonFiniteEntry("vectors contain a non-finite entry")
    cs, e, _ = _scaled(c)
    return 0.5 * np.ldexp(_row_norms(_fields(cs, np.ascontiguousarray(cs.T), v)), e)


def _sum_up(x):
    """sum(x) rounded upward; NonFiniteEntry when it overflows.

    math.fsum rounds the exact sum to nearest; the sign of the exact
    remainder says whether that fell below it.
    """
    x = x.tolist()
    try:
        s = math.fsum(x)
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise NonFiniteEntry("certified bound overflows")
    return math.nextafter(s, math.inf) if math.fsum(x + [-s]) > 0 else s


def _allowance(a, m, grow=1.0):
    """Rump's allowance cap, a_i = |x_i| + |A_ii| for an m x m A: a Cholesky of diag(x + cap)
    + A that completes proves diag(x + 2 cap) + A PSD; m u covers underflow; grow >= 1 scales."""
    return (m + 2) ** 2 * _U * grow * a + m * _U * grow


def _certificate(proof, e, margin=0.0):
    """The DualCertificate of proven scaled multipliers: lambda' = 2^e proof, rounded upward."""
    lam = np.nextafter(np.ldexp(proof, e), np.inf)
    return DualCertificate(lam, margin, _sum_up(lam))


def certify(c, lam):
    """Rigorous upper bound from any multiplier vector.

    lam has nA + nB entries, Alice's first.  Returns multipliers lam' >= lam
    whose diag(lam') - W/2 is PSD in exact arithmetic, W = [[0, c], [c^T,
    0]], and their sum rounded upward as the certified bound: by weak
    duality it bounds the inequality for every state and every set of +-1
    observables, no matter where lam came from.

    c and lam are scaled by 2^-e, which keeps max|c| * 2^-e below 1 and
    every lambda * 2^-e below 2^1000.  With x = lam, the larger side's x_l
    is raised by its allowance to y > 0, and diag(p, y) - W/2 is PSD when the
    Schur complement diag(p) - k k^T is, k = a diag(1/(2 sqrt(y))), a = c or
    c^T with n = min(nA, nB) rows (_proven).  A Cholesky factorization of A =
    diag(x_s + cap) - fl(k k^T) that completes proves A + diag(cap) PSD
    (Demmel's backward error, g = gamma_{n+1}/(1 - gamma_{n+1}), is at most g
    n diag(a_ii)); cap_i = (n+2)^2 u (|x_i| + |A_ii|) + n u also covers the
    roundings in forming A and cap, and underflow.  With delta >= |fl(k k^T) -
    k k^T| (_gram_proven), lam' = (x_s + 2 cap + delta, y) rounded upward,
    and feasibility_margin is 0.0.  Only where that fails is x = lam - mu, mu
    = min(0, min_eig(diag(lam) - W/2)), which feasibility_margin reports, and
    both allowances doubled until it holds.  A zero c needs no allowance:
    lam' is lam shifted up to a least entry of 0.  Raises EmptyMatrix unless
    c is a non-empty 2-d array, LengthMismatch unless lam has nA + nB
    entries, and NonFiniteEntry when c or lam has a NaN or infinite entry, or
    when the bound overflows.
    """
    c, lam = _block(c), np.asarray(lam, dtype=float)
    m = sum(c.shape)
    if lam.shape != (m,):
        raise LengthMismatch(f"lambda has shape {lam.shape}, expected ({m},)")
    top = float(np.abs(lam).max())
    if not math.isfinite(top):
        raise NonFiniteEntry("lambda contains a non-finite entry")
    cs, e, big = _scaled(c, math.frexp(top)[1] - 1000)
    if not big:
        mu = min(0.0, float(lam.min()))
        lam = lam - mu
        return DualCertificate(lam=lam, feasibility_margin=mu, certified_bound=_sum_up(lam))
    x, mu = np.ldexp(lam, -e), 0.0
    if (proof := _proven(cs, x)) is None:
        mu = min(0.0, min_eigenvalue(_slack(cs, x)))
        x, grow = x - mu, 1.0
        while (proof := _proven(cs, x, grow)) is None:
            grow *= 2.0
            if grow == math.inf:
                raise NonFiniteEntry("certified bound overflows")
    return _certificate(proof, e, math.ldexp(mu, e))


def _spectral(cs, e, rank):
    """The paper's bound, certified, and a rank-d primal attaining it; or None.

    lambda = sigma_1 sqrt(nB/nA)/2 on Alice's side and sigma_1 sqrt(nA/nB)/2
    on Bob's, sigma_1 the largest singular value of c, makes diag(lambda) -
    W/2 PSD: by its Schur complement, exactly when 4 lambda_A lambda_B I - c
    c^T is.  Its sum is attained when the rows of K = [U_1; sqrt(nB/nA) V_1],
    the d top singular pairs, have one norm: K^T K is a multiple of I, and
    the rows of K, normalized, are the primal (Epping, Kampermann & Bruss,
    2013).  One eigh of the smaller side's n x n Gram matrix G of a, cs =
    c 2^-e or its transpose, gives the pairs, and one Cholesky of sigma_1^2
    I - G proves the bound; W is never formed.  None when c is zero, d > rank, the rows of K
    differ in norm by more than _TIGHT_TOL, the gap before the rounding
    allowance exceeds _GAP_TARGET * 2^e, or the Cholesky fails: the ascent
    then certifies c as it does every other input.
    """
    na, nb = cs.shape
    a = cs.T if nb < na else cs  # rows: the smaller side
    g = a @ a.T
    vals, vecs = np.linalg.eigh(g)
    top = vals[-1]
    d = int(np.count_nonzero(vals >= top * (1 - _TIGHT_TOL)))
    if not (top > 0 and d <= rank):
        return None
    sigma = math.sqrt(top)
    near, far = vecs[:, -d:], a.T @ vecs[:, -d:] / sigma
    u, v = (far, near) if nb < na else (near, far)
    k = np.concatenate([u, math.sqrt(nb / na) * v])
    sq = np.add.reduce(k * k, axis=1)  # |k_r|^2; one norm: sq s = 1, s = sum(sq) / |sq|^2
    if not np.abs(sq * (np.sum(sq) / np.vdot(sq, sq)) - 1.0).max() <= _TIGHT_TOL:
        return None
    rows = k / np.sqrt(sq)[:, None]
    value = _value(rows[:na], rows[na:], cs, e)
    half = math.ldexp(sigma, e - 1)  # about value / (2 sqrt(nA nB)): finite
    la, lb = half * math.sqrt(nb / na), half * math.sqrt(na / nb)  # Alice's, Bob's
    # judged before the rounding allowance, which grows like n^2 u sum(lambda)
    if not na * la + nb * lb - value <= math.ldexp(_GAP_TARGET, e):
        return None
    if (proof := _gram_proven(a, g, top, a.shape[1])) is None:
        return None
    # so s I - G is PSD; half >= 2^(e-1) sqrt(s), and la lb >= half^2 exactly
    s = math.nextafter(math.fsum([top, 2 * float(proof[0].max()), proof[1]]), math.inf)
    half, r = math.nextafter(math.ldexp(math.sqrt(s), e - 1), math.inf), math.sqrt(nb / na)
    la, lb = math.nextafter(half * r, math.inf), math.nextafter(half / r, math.inf)
    lam = np.repeat(np.array([la, lb]), (na, nb))
    bound = _sum_up(lam)
    return PrimalSolution(rows, value, 0, 0.0), DualCertificate(lam, 0.0, bound)


def solve(ineq, classical=True):
    """Full pipeline: objective, primal ascent, dual extraction, certification.

    c is checked first (_block): EmptyMatrix unless it is a non-empty 2-d
    array, NonFiniteEntry on a NaN or infinite entry.  With classical, the
    exact classical bound of that block comes next (_lhv), so an input too
    large to enumerate raises TooLarge before any quantum work.  Then c is
    scaled once (_scaled).  One run is reported: the spectral one
    (_spectral), where taken, or else the ascent (_ascent) at seed 0 and
    rank min(m, ceil(sqrt(2m)) + 1), m = nA + nB, for at most
    DEFAULT_MAX_ITER iterations; a stalled ascent lifts itself a rank up.
    The report carries its gap over max(1, max|c|) as relative_gap.  When
    the run's primal value reads below the classical bound (a slow run can
    stop just short of a classical optimum), the classical witness, as the
    feasible point x_s, y_t = +-e_1 of value the classical bound, becomes
    the reported primal; the run's iteration count, residual and
    convergence flag are kept, and runs is unchanged.  A run that reads the
    classical bound is kept.
    """
    c = _block(ineq.coefficients)
    lhv = _lhv(c) if classical else None
    cs, e, big = _scaled(c)
    m = sum(c.shape)
    rank = min(m, math.isqrt(2 * m - 1) + 2)
    if (found := _spectral(cs, e, rank)) is not None:
        (primal, dual), method = found, "spectral"
    else:
        (primal, proof), method = _ascent(cs, e, rank, 0), "mixing"
        if proof is None or not big:  # no proof, or c = 0: certify's exact 0
            dual = certify(c, extract_dual(c, primal.vectors))
        else:
            dual = _certificate(proof, e)
    run = Run(primal.vectors.shape[1], primal.iterations, primal.converged, primal.value,
              dual.certified_bound, dual.certified_bound - primal.value, method)
    if lhv is not None and primal.value < lhv.value:
        v = np.zeros_like(primal.vectors)
        v[:, 0] = np.concatenate([lhv.witness_x, lhv.witness_y])
        primal = replace(primal, vectors=v, value=lhv.value)
    gap = dual.certified_bound - primal.value
    return BoundReport(name=ineq.name, primal=primal, dual=dual, gap=gap,
                       relative_gap=gap / max(1.0, big),
                       classical_bound=None if lhv is None else lhv.value, runs=(run,))
