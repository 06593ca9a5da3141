"""Unit-diagonal SDP solver with dual certification.

The primal "maximize (1/2) Tr(G W) s.t. G >= 0, g_ii = 1" is attacked in the
low-rank factorized form: m unit vectors are updated in a fixed order by
block-coordinate ascent, the Mixing method (each update is the closed-form
maximizer, so the objective never decreases).  Consecutive vectors that W does
not couple are updated together in one matrix product; for a Bell objective,
whose Alice-Alice and Bob-Bob blocks are zero, a sweep is two products, and
the iterate is the same as updating one vector at a time.  The nonconvexity of
the factorization is repaired afterwards: any multiplier vector lambda whose
diag(lambda) - W/2 is PSD gives a rigorous upper bound Tr(diag(lambda)) by
weak duality, and an infeasible lambda can always be shifted onto the PSD cone
at a quantified price.
"""

from dataclasses import dataclass, field

import numpy as np

from . import inequality as ineq_mod
from .classical import lhv_bound
from .errors import InvalidRank, MaxIterReached, NonFiniteEntry
from .linalg import min_eigenvalue

DEFAULT_MAX_ITER = 10000
DEFAULT_TOL = 1e-10
OPTIMAL_GAP = 1e-5
RESTART_GAP = 1e-4


@dataclass(frozen=True)
class PrimalSolution:
    vectors: np.ndarray  # m x r, unit rows
    gram: np.ndarray
    value: float
    iterations: int
    residual: float
    converged: bool = True


@dataclass(frozen=True)
class DualCertificate:
    lam: np.ndarray  # feasible multipliers (shifted if needed)
    feasibility_margin: float  # min eigenvalue of diag(input lambda) - W/2
    certified_bound: float


@dataclass(frozen=True)
class BoundReport:
    name: str
    primal: PrimalSolution
    dual: DualCertificate
    gap: float
    classical_bound: float | None = None
    analytic_bound: float | None = None
    runs: list = field(default_factory=list)


@dataclass(frozen=True)
class SolveOptions:
    rank: int | None = None  # default nA + nB
    seed: int = 0
    max_iter: int = DEFAULT_MAX_ITER
    tol: float = DEFAULT_TOL


def _initial_vectors(m, rank, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _uncoupled_runs(w):
    """Split 0..m-1 into maximal runs [lo, hi) with W[j][lo:j] == 0 for each j.

    No field g_j in a run reads a vector updated earlier in the same run, so
    the run can be updated in one step with the same result as one at a time.
    For a Bell objective the runs are Alice's indices, then Bob's.
    """
    runs = []
    lo = 0
    for j in range(1, w.shape[0]):
        if np.any(w[j, lo:j]):
            runs.append((lo, j))
            lo = j
    runs.append((lo, w.shape[0]))
    return runs


def solve_primal(w, rank, seed=0, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL):
    """Block-coordinate ascent over unit vectors v_1..v_m.

    Each pass sets v_i to the normalized field g_i = sum_j W[i][j] v_j in fixed
    index order (v_i untouched when ||g_i|| < 1e-14).  Runs of vectors that W
    does not couple are updated together, which gives the same iterate as the
    one-at-a-time sweep.  Stops when the largest per-vector displacement in a
    sweep falls below tol; raises MaxIterReached (carrying the partial
    solution) if the sweep cap is hit first.
    """
    w = np.asarray(w, dtype=float)
    m = w.shape[0]
    if rank < 2:
        raise InvalidRank(f"rank must be >= 2, got {rank}")
    if tol <= 0:
        raise InvalidRank(f"tol must be positive, got {tol}")
    v = _initial_vectors(m, rank, seed)
    runs = _uncoupled_runs(w)
    residual = np.inf
    for sweep in range(1, max_iter + 1):
        residual = 0.0
        for lo, hi in runs:
            g = w[lo:hi] @ v
            ng = np.linalg.norm(g, axis=1)
            live = ng >= 1e-14
            old = v[lo:hi]  # a view: assigning through it updates v
            new = g[live] / ng[live, None]
            disp = np.linalg.norm(new - old[live], axis=1)
            residual = max(residual, float(disp.max(initial=0.0)))
            old[live] = new
        if residual < tol:
            return _finish(w, v, sweep, residual, converged=True)
    partial = _finish(w, v, max_iter, residual, converged=False)
    raise MaxIterReached(
        f"no convergence after {max_iter} sweeps (residual {residual:.3e})", partial
    )


def _finish(w, v, iterations, residual, converged):
    gram = v @ v.T
    return PrimalSolution(
        vectors=v,
        gram=gram,
        value=0.5 * float(np.sum(gram * w)),
        iterations=iterations,
        residual=float(residual),
        converged=converged,
    )


def extract_dual(w, vectors):
    """Multipliers lambda_i = (1/2) ||sum_j W[i][j] v_j||.

    At a fixed point of solve_primal, sum_i lambda_i equals the primal value
    (complementary slackness), so a feasible lambda certifies optimality.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(vectors, dtype=float)
    return 0.5 * np.linalg.norm(w @ v, axis=1)


def certify(w, lam):
    """Rigorous upper bound from any multiplier vector.

    mu = min_eig(diag(lam) - W/2); when mu < 0 every entry is shifted by -mu
    (adding c*I keeps the matrix moving toward the PSD cone and adds m*c to
    the trace), so the certified bound sum(lam) + m*max(0, -mu) holds no
    matter where lam came from.  Raises NonFiniteEntry when lam has a NaN or
    infinite entry, or when the bound overflows.
    """
    w = np.asarray(w, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise NonFiniteEntry("lambda contains a non-finite entry")
    m = w.shape[0]
    mu = min_eigenvalue(np.diag(lam) - w / 2.0)
    shift = max(0.0, -mu)
    bound = float(np.sum(lam) + m * shift)
    if not np.isfinite(bound):
        raise NonFiniteEntry("certified bound overflows")
    return DualCertificate(
        lam=lam + shift,
        feasibility_margin=float(mu),
        certified_bound=bound,
    )


def _single_run(w, rank, seed, max_iter, tol):
    try:
        primal = solve_primal(w, rank, seed=seed, max_iter=max_iter, tol=tol)
    except MaxIterReached as exc:
        primal = exc.solution
    dual = certify(w, extract_dual(w, primal.vectors))
    return primal, dual


def solve(ineq, opts=None, classical=True):
    """Full pipeline: objective, primal ascent, dual extraction, certification.

    If the first run converged but the certified gap exceeds 1e-4 (a stuck
    rank-deficient saddle), one restart with seed+1 and rank+2 is attempted
    and both runs are reported; the report carries the better run.
    """
    opts = opts or SolveOptions()
    w = ineq_mod.build_objective(ineq)
    m = w.shape[0]
    rank = opts.rank if opts.rank is not None else m
    primal, dual = _single_run(w, rank, opts.seed, opts.max_iter, opts.tol)
    runs = [_run_summary(opts.seed, rank, primal, dual)]
    if primal.converged and dual.certified_bound - primal.value > RESTART_GAP:
        primal2, dual2 = _single_run(w, rank + 2, opts.seed + 1, opts.max_iter, opts.tol)
        runs.append(_run_summary(opts.seed + 1, rank + 2, primal2, dual2))
        if dual2.certified_bound - primal2.value < dual.certified_bound - primal.value:
            primal, dual = primal2, dual2
    return BoundReport(
        name=ineq.name,
        primal=primal,
        dual=dual,
        gap=dual.certified_bound - primal.value,
        classical_bound=lhv_bound(ineq).value if classical else None,
        runs=runs,
    )


def _run_summary(seed, rank, primal, dual):
    return {
        "seed": seed,
        "rank": rank,
        "iterations": primal.iterations,
        "converged": primal.converged,
        "primal_value": primal.value,
        "certified_bound": dual.certified_bound,
        "gap": dual.certified_bound - primal.value,
    }
