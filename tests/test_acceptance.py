"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with pytest -s to see them as they complete)."""

import math
import time

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
    sdp,
    solve,
    solve_primal,
)
from tsirelson.analytic import chained_quantum_bound
from tsirelson.linalg import min_eigenvalue
from tsirelson.realization import correlation, inequality_value, realize

from oracles import chained_primal_vectors, rank2_max, sym_eigen


def _report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_chsh_optimum():
    start = time.perf_counter()
    report = solve(chained(2))
    elapsed = time.perf_counter() - start
    target = 2 * np.sqrt(2)
    ok = (
        abs(report.primal.value - target) <= 1e-6
        and abs(report.dual.certified_bound - target) <= 1e-6
        and elapsed < 1.0
    )
    _report(
        "1 CHSH optimum",
        ok,
        f"p={report.primal.value:.9f} d={report.dual.certified_bound:.9f} "
        f"t={elapsed:.3f}s",
    )


def test_02_chained_family():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        report = solve(chained(n))
        target = chained_quantum_bound(n)
        worst = max(
            worst,
            abs(report.primal.value - target),
            abs(report.dual.certified_bound - target),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report("2 chained family n=2..10", ok, f"worst={worst:.2e} t={elapsed:.2f}s")


def test_03_classical_bounds():
    start = time.perf_counter()
    ok = all(lhv_bound(chained(n)).value == 2 * n - 2 for n in range(2, 11))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report("3 classical bounds", ok, f"t={elapsed:.3f}s")


def test_04_spectrum_claims():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        numeric = sym_eigen(build_objective(chained(n))).eigenvalues
        s = np.arange(n)
        sigmas = np.sqrt(2.0 + 2.0 * np.cos(np.pi * (2 * s + 1) / n))
        expected = np.sort(np.concatenate([sigmas, -sigmas]))
        worst = max(worst, float(np.abs(numeric - expected).max()))
        worst = max(worst, abs(numeric[-1] - 2 * np.cos(np.pi / (2 * n))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report("4 spectrum claims", ok, f"worst={worst:.2e} t={elapsed:.2f}s")


def test_05_dual_feasibility():
    worst = 0.0
    for n in range(2, 11):
        w = build_objective(chained(n))
        lam = np.full(2 * n, np.cos(np.pi / (2 * n)))
        mu = min_eigenvalue(np.diag(lam) - w / 2.0)
        worst = max(worst, abs(mu))
    ok = worst <= 1e-9
    _report("5 dual feasibility of paper certificate", ok, f"worst |mu|={worst:.2e}")


def test_06_realization_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        ka, kb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        xs = rng.standard_normal((ka, n))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = rng.standard_normal((kb, n))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        real = realize(xs, ys)
        for s in range(ka):
            for t in range(kb):
                corr = correlation(
                    real.observables_x[s], real.observables_y[t], real.psi
                )
                worst = max(worst, abs(corr - float(np.dot(xs[s], ys[t]))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report("6 realization identity", ok, f"worst={worst:.2e} t={elapsed:.2f}s")


def test_07_end_to_end_tightness():
    worst = 0.0
    for n in range(2, 6):
        report = solve(chained(n))
        xs, ys = chained_primal_vectors(n)
        real = realize(xs[:, :2], ys[:, :2])
        achieved = inequality_value(chained(n), real)
        worst = max(worst, abs(achieved - report.dual.certified_bound))
    ok = worst <= 1e-8
    _report("7 end-to-end tightness", ok, f"worst={worst:.2e}")


def test_08_weak_duality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for k in range(200):
        na, nb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        c = rng.integers(-1, 2, (na, nb)).astype(float)
        if not c.any():
            c[0, 0] = 1.0
        ineq = new_inequality(f"acc8-{k}", c)
        report = solve(ineq)
        classical = lhv_bound(ineq).value
        if report.dual.certified_bound < report.primal.value - 1e-8:
            ok = False
        if report.primal.value < classical - 1e-8:
            ok = False
        if report.dual.certified_bound < classical - 1e-8:
            ok = False
        # the ascent itself, from a different start on each input.  It stops
        # within _GAP_TARGET of optimal on c / 2 (max|c| = 1), so without the
        # classical witness its value may sit up to 2 * _GAP_TARGET below
        m = na + nb
        sol = solve_primal(c, min(m, math.ceil(math.sqrt(2 * m)) + 1), seed=k)
        cert = certify(c, extract_dual(c, sol.vectors))
        if cert.certified_bound < sol.value - 1e-8:
            ok = False
        if sol.value < classical - 2 * sdp._GAP_TARGET:
            ok = False
        if cert.certified_bound < classical - 1e-8:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report("8 weak duality suite", ok, f"t={elapsed:.2f}s")


def test_09_brute_force_oracle():
    worst = 0.0
    for bits in range(16):
        c = np.array(
            [
                [1.0 if bits & 1 else -1.0, 1.0 if bits & 2 else -1.0],
                [1.0 if bits & 4 else -1.0, 1.0 if bits & 8 else -1.0],
            ]
        )
        ineq = new_inequality(f"sign-{bits}", c)
        report = solve(ineq)
        exact = rank2_max(c)
        worst = max(worst, abs(report.dual.certified_bound - exact))
    ok = worst <= 1e-4
    _report("9 brute-force oracle equivalence", ok, f"worst={worst:.2e}")


def test_10_gisin_certified():
    worst = 0.0
    for n in range(2, 7):
        report = solve(gisin(n))
        worst = max(worst, report.gap)
    ok = worst <= 1e-5
    _report("10 gisin certified gap", ok, f"worst gap={worst:.2e}")
