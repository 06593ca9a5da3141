"""The benchmark's workloads: generated inputs, the jobs run on them, and result checks.

Each pass over a workload draws its random inputs from
``numpy.random.default_rng([seed, pass_index])``, so a seed fixes every pass's
inputs and a run's medians sample the input distribution instead of a single
draw.  The library sees only the generated matrices and files; the solver runs
with its defaults (seed 0).

A check returns a list of problems; an empty list means the result is correct.
Reference values (chained closed forms, enumerated classical bounds) are
computed here, independently of the library.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tsirelson as ts
import tsirelson.cli

GAP_TOL = 1e-5  # largest certified gap accepted
ANALYTIC_TOL = 1e-6  # primal and certified bound against 2n cos(pi/2n)
BELOW_TOL = 1e-9  # how far a certified bound may sit below the true value
CORRELATION_TOL = 1e-9  # realized correlations against the vectors' inner products
KRIVINE = 1.7823  # upper bound on Grothendieck's constant (Krivine)
RANDOM_ENTRIES = (-3, 3)  # random integer coefficients, inclusive


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    name: str
    largest_job: str
    make_jobs: Callable  # (seed, pass_index, workdir) -> list[Job]


def chained_bound(n):
    return 2.0 * n * math.cos(math.pi / (2 * n))


def random_coefficients(rng, k):
    lo, hi = RANDOM_ENTRIES
    return rng.integers(lo, hi + 1, size=(k, k)).astype(float)


def gisin_coefficients(n):
    s, t = np.indices((n, n))
    return np.where(s + t + 2 <= n + 1, 1.0, -1.0)


def lhv_reference(c, chunk=4096):
    """Classical bound max_x sum_t |sum_s x_s c[s][t]| by plain enumeration.

    The smaller side is enumerated with its first sign fixed to +1, which
    loses nothing because the objective is even in x.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[0] > c.shape[1]:
        c = c.T
    k = c.shape[0]
    bits = np.arange(k - 1)
    best = -math.inf
    for start in range(0, 1 << (k - 1), chunk):
        idx = np.arange(start, min(start + chunk, 1 << (k - 1)))
        x = 1.0 - 2.0 * ((idx[:, None] >> bits) & 1)
        best = max(best, float(np.abs(c[0] + x @ c[1:]).sum(axis=1).max()))
    return best


# ---------------------------------------------------------------------------
# checks


def check_bounds(primal, certified, gap=None, classical=None, analytic=None,
                 expected_classical=None):
    """Problems with one solve's numbers; the comparisons are written so NaN fails."""
    problems = []
    if gap is None:
        gap = certified - primal
    if not gap <= GAP_TOL:
        problems.append(f"certified gap {gap!r} exceeds {GAP_TOL}")
    slack = BELOW_TOL * max(1.0, abs(certified))
    if not primal <= certified + slack:
        problems.append(f"primal {primal!r} above certified bound {certified!r}")
    if analytic is not None:
        if not abs(primal - analytic) <= ANALYTIC_TOL:
            problems.append(f"primal {primal!r} is not the analytic {analytic!r}")
        if not abs(certified - analytic) <= ANALYTIC_TOL:
            problems.append(f"certified {certified!r} is not the analytic {analytic!r}")
        if not certified >= analytic - BELOW_TOL:
            problems.append(f"certified {certified!r} below the analytic {analytic!r}")
    if classical is not None:
        if expected_classical is not None and not abs(classical - expected_classical) <= 1e-9:
            problems.append(f"classical {classical!r}, expected {expected_classical!r}")
        if not classical <= primal + slack:
            problems.append(f"classical {classical!r} above primal {primal!r}")
        if not certified <= KRIVINE * classical + slack:
            problems.append(
                f"certified {certified!r} above {KRIVINE} x classical {classical!r}"
            )
    return problems


def check_report(report, analytic=None, expected_classical=None):
    return check_bounds(
        report.primal.value, report.dual.certified_bound, gap=report.gap,
        classical=report.classical_bound, analytic=analytic,
        expected_classical=expected_classical,
    )


def check_witness(coefficients, doc):
    """The reported LHV strategy attains the reported value."""
    x = np.asarray(doc["witness_x"], dtype=float)
    y = np.asarray(doc["witness_y"], dtype=float)
    c = np.asarray(coefficients, dtype=float)
    if x.shape != (c.shape[0],) or y.shape != (c.shape[1],):
        return [f"witness shapes {x.shape}, {y.shape} do not fit {c.shape}"]
    if not (np.all(np.abs(x) == 1) and np.all(np.abs(y) == 1)):
        return ["witness entries are not +-1"]
    attained = float(x @ c @ y)
    if not abs(attained - doc["value"]) <= 1e-9:
        return [f"witness attains {attained!r}, reported {doc['value']!r}"]
    return []


def check_realization(doc, analytic=None):
    problems = []
    if not doc["max_correlation_error"] <= CORRELATION_TOL:
        problems.append(f"max_correlation_error {doc['max_correlation_error']!r}")
    if not abs(doc["achieved_value"] - doc["certified_bound"]) <= GAP_TOL:
        problems.append(
            f"achieved {doc['achieved_value']!r} vs certified {doc['certified_bound']!r}"
        )
    if analytic is not None and not abs(doc["certified_bound"] - analytic) <= ANALYTIC_TOL:
        problems.append(f"certified {doc['certified_bound']!r} vs analytic {analytic!r}")
    return problems


def check_table(doc, lo, hi):
    rows = doc["rows"]
    if [r["n"] for r in rows] != list(range(lo, hi + 1)):
        return [f"table rows {[r['n'] for r in rows]}"]
    problems = []
    for r in rows:
        n = r["n"]
        if not abs(r["quantum_analytic"] - chained_bound(n)) <= 1e-12:
            problems.append(f"n={n}: quantum_analytic {r['quantum_analytic']!r}")
        problems += [
            f"n={n}: {p}" for p in check_bounds(
                r["quantum_numeric"], r["quantum_numeric"] + r["gap"], gap=r["gap"],
                classical=r["classical"], analytic=chained_bound(n),
                expected_classical=2 * n - 2,
            )
        ]
    return problems


def check_spectrum(doc, n):
    w_max = 2.0 * math.cos(math.pi / (2 * n))
    sigmas = doc["sigmas"]
    moduli = [math.hypot(re, im) for re, im in doc["gammas"]]
    problems = []
    if len(sigmas) != n or len(moduli) != n:
        problems.append(f"{len(sigmas)} sigmas, {len(moduli)} gammas, expected {n}")
    if not abs(doc["w_max"] - w_max) <= 1e-12 or not abs(max(sigmas) - w_max) <= 1e-12:
        problems.append(f"w_max {doc['w_max']!r}, max sigma {max(sigmas)!r}, expected {w_max!r}")
    if not all(abs(m - s) <= 1e-12 for m, s in zip(moduli, sigmas)):
        problems.append("|gamma_s| differs from sigma_s")
    return problems


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def read_cli_output(path, status):
    """Parse a CLI request's output file; a non-zero exit or invalid JSON raises."""
    if status != 0:
        raise ValueError(f"exit status {status}")
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# workloads


def _solve_job(name, ineq, classical, check):
    return Job(name, lambda: ts.sdp.solve(ineq, classical=classical), check)


def chained_quantum_jobs(seed, pass_index, workdir):
    jobs = []
    for n in (8, 16, 32):
        analytic = chained_bound(n)
        jobs.append(_solve_job(
            f"chained-{n}", ts.chained(n), False,
            lambda r, a=analytic: check_report(r, analytic=a),
        ))
    return jobs


def bell_classical_jobs(seed, pass_index, workdir):
    rng = np.random.default_rng([seed, pass_index])
    inputs = [(f"gisin-{n}", gisin_coefficients(n)) for n in (8, 12, 16)]
    inputs += [(f"rand-{k}", random_coefficients(rng, k)) for k in (16, 18)]
    jobs = []
    for name, c in inputs:
        reference = lhv_reference(c)
        jobs.append(_solve_job(
            name, ts.new_inequality(name, c), True,
            lambda r, ref=reference: check_report(r, expected_classical=ref),
        ))
    return jobs


def cli_mixed_jobs(seed, pass_index, workdir):
    rng = np.random.default_rng([seed, pass_index])
    workdir = Path(workdir)
    jobs = []

    def request(name, argv, check):
        out = workdir / f"out-{len(jobs):02d}.json"
        out.unlink(missing_ok=True)  # a stale file must not pass the next check
        argv = list(argv) + ["--format", "json", "--output", str(out)]
        jobs.append(Job(
            name,
            lambda: ts.cli.main(argv),
            lambda status: check(read_cli_output(out, status)),
        ))

    def bound_check(analytic=None, expected_classical=None):
        def check(doc):
            return check_bounds(
                doc["primal"]["value"], doc["dual"]["certified_bound"], gap=doc["gap"],
                classical=doc["classical_bound"], analytic=analytic,
                expected_classical=expected_classical,
            )
        return check

    files = {}
    for k in range(3, 7):
        c = random_coefficients(rng, k)
        path = workdir / f"rand-{k}.json"
        path.write_text(json.dumps({"name": f"rand-{k}", "coefficients": c.tolist()}))
        files[k] = (path, c)
    lam_path = workdir / "lambda-chained-4.json"
    lam_path.write_text(json.dumps([math.cos(math.pi / 8)] * 8))

    request("bound chsh", ["bound", "--inequality", "chsh"],
            bound_check(chained_bound(2), 2.0))
    for n in range(2, 9):
        request(f"bound chained --n {n}", ["bound", "--inequality", "chained", "--n", str(n)],
                bound_check(chained_bound(n), 2.0 * n - 2))
    for n in range(2, 9):
        request(f"bound gisin --n {n}", ["bound", "--inequality", "gisin", "--n", str(n)],
                bound_check(expected_classical=lhv_reference(gisin_coefficients(n))))
    for k, (path, c) in files.items():
        request(f"bound rand-{k}", ["bound", "--inequality", "file", "--file", str(path)],
                bound_check(expected_classical=lhv_reference(c)))
    for n in (4, 8, 12):
        c = gisin_coefficients(n)
        request(f"classical gisin --n {n}",
                ["classical", "--inequality", "gisin", "--n", str(n)],
                lambda doc, c=c, ref=lhv_reference(c): check_witness(c, doc) + (
                    [] if doc["value"] == ref
                    else [f"classical {doc['value']!r}, expected {ref!r}"]
                ))
    request("certify chained --n 4",
            ["certify", "--inequality", "chained", "--n", "4", "--lambda-file", str(lam_path)],
            lambda doc: check_bounds(chained_bound(4), doc["certified_bound"],
                                     analytic=chained_bound(4)))
    for n in (3, 5, 8):
        request(f"realize chained --n {n}",
                ["realize", "--inequality", "chained", "--n", str(n)],
                lambda doc, a=chained_bound(n): check_realization(doc, a))
    for n in range(3, 9):
        request(f"realize gisin --n {n}", ["realize", "--inequality", "gisin", "--n", str(n)],
                check_realization)
    for k, (path, _) in files.items():
        request(f"realize rand-{k}", ["realize", "--inequality", "file", "--file", str(path)],
                check_realization)
    request("table --n-range 2..8", ["table", "--n-range", "2..8"],
            lambda doc: check_table(doc, 2, 8))
    request("spectrum --n 8", ["spectrum", "--n", "8"], lambda doc: check_spectrum(doc, 8))
    return jobs


# Why each workload was chosen, and the layers it loads, is recorded in
# BENCHMARK.json next to its name.
WORKLOADS = {
    w.name: w for w in (
        Workload("chained-quantum", "chained-32", chained_quantum_jobs),
        Workload("bell-classical", "rand-18", bell_classical_jobs),
        Workload("cli-mixed", "realize gisin --n 8", cli_mixed_jobs),
    )
}
