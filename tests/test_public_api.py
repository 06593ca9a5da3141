import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import tsirelson

PUBLIC = [
    "BoundReport",
    "ClassicalBound",
    "CorrelationInequality",
    "DualCertificate",
    "PrimalSolution",
    "QuantumRealization",
    "build_objective",
    "certify",
    "chained",
    "chained_A_spectrum",
    "chained_quantum_bound",
    "chsh",
    "correlation",
    "extract_dual",
    "gisin",
    "inequality_value",
    "lhv_bound",
    "min_eigenvalue",
    "new_inequality",
    "realize",
    "solve",
    "solve_primal",
]


# every public parameter list: a new setting has to edit these tables
SIGNATURES = {
    "build_objective": "(ineq)",
    "certify": "(c, lam)",
    "chained": "(n)",
    "chained_A_spectrum": "(n)",
    "chained_quantum_bound": "(n)",
    "chsh": "()",
    "correlation": "(x, y, psi)",
    "extract_dual": "(c, vectors)",
    "gisin": "(n)",
    "inequality_value": "(ineq, realization)",
    "lhv_bound": "(ineq)",
    "min_eigenvalue": "(s)",
    "new_inequality": "(name, coefficients)",
    "realize": "(xs, ys)",
    "solve": "(ineq, classical=True)",
    "solve_primal": "(c, rank, seed=0)",
}
FIELDS = {
    "BoundReport": ("name", "primal", "dual", "gap", "relative_gap", "classical_bound", "runs"),
    "ClassicalBound": ("value", "witness_x", "witness_y"),
    "CorrelationInequality": ("name", "coefficients"),
    "DualCertificate": ("lam", "feasibility_margin", "certified_bound"),
    "PrimalSolution": ("vectors", "value", "iterations", "residual", "converged"),
    "QuantumRealization": ("dim", "observables_x", "observables_y", "psi"),
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(tsirelson.__all__) == PUBLIC == sorted([*SIGNATURES, *FIELDS])
    for name in PUBLIC:
        assert hasattr(tsirelson, name), name


@pytest.mark.parametrize(
    "module, name",
    [
        ("linalg", "gram_from_vectors"),
        ("inequality", "objective_value"),
        ("analytic", "chsh_known_solution"),
        ("realization", "clifford_generators"),
        ("analytic", "chained_classical_bound"),
        ("analytic", "chained_primal_vectors"),
        ("analytic", "chained_dual_lambda"),
        ("linalg", "vectors_from_gram"),
    ],
)
def test_test_only_helpers_are_not_in_the_library(module, name):
    # they live in tests/oracles.py
    assert not hasattr(importlib.import_module(f"tsirelson.{module}"), name)
    assert not hasattr(tsirelson, name)


def test_errors_has_no_not_psd():
    # only vectors_from_gram raised it; realize now takes a thin SVD of the primal
    assert not hasattr(importlib.import_module("tsirelson.errors"), "NotPSD")


# public functions that the library itself never calls
UNCALLED = {
    "build_objective",  # perfbench's tracer wraps it by name; the library reads c
    "correlation",  # perfbench's tracer wraps it by name
    "inequality_value",  # perfbench's tracer wraps it by name
    "solve_primal",  # a public entry point, and perfbench's tracer wraps it by name
}


def test_every_public_function_has_a_library_caller():
    # a name used only by tests belongs in tests/oracles.py
    used = set()
    for path in Path(tsirelson.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    functions = {
        n for n in tsirelson.__all__ if not dataclasses.is_dataclass(getattr(tsirelson, n))
    }
    assert sorted(functions - used) == sorted(UNCALLED)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_parameter_lists_are_pinned(name):
    obj = getattr(tsirelson, name)
    if dataclasses.is_dataclass(obj):
        assert tuple(f.name for f in dataclasses.fields(obj)) == FIELDS[name]
    else:
        assert str(inspect.signature(obj)) == SIGNATURES[name]


# every np.linalg call site in the library, by routine: a second eigen
# routine on the hot path, or a least-squares solve, has to edit this table
LINALG_CALLS = {
    "cholesky": 1,  # sdp._gram_proven: every PSD proof, on the smaller side's n x n matrix
    "eigh": 2,  # sdp._spectral: the singular pairs of c; sdp._ascent: a stalled run's lift
    "eigvalsh": 1,  # linalg.min_eigenvalue: certify's shift, where its first proof fails
    "norm": 2,  # cli and realize: row norms
    "solve": 1,  # sdp._Anderson.mix: the k x k normal equations
    "svd": 1,  # cli: the thin SVD of the primal factor
}


def test_linalg_call_sites_are_pinned():
    calls = {}
    for path in Path(tsirelson.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # the routines are reached as np.linalg.<name> only
            if isinstance(node, ast.ImportFrom):
                assert node.module != "numpy.linalg", path.name
            if (isinstance(node, ast.Call) and isinstance(f := node.func, ast.Attribute)
                    and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg"):
                calls[f.attr] = calls.get(f.attr, 0) + 1
    assert calls == LINALG_CALLS


def _call_sites(name, files="*.py"):
    """The library function around each call of name, sorted: one entry a call."""
    sites = []

    def visit(node, caller):
        if isinstance(node, ast.FunctionDef):
            caller = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            sites.append(caller)
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    for path in Path(tsirelson.__file__).parent.glob(files):
        visit(ast.parse(path.read_text()), None)
    return sorted(sites)


def test_c_is_checked_and_scaled_once_per_public_call():
    # each public entry checks c once, and sdp's public entries scale it once:
    # the private routines take the scaled block.  A second check or scaling
    # on one call path has to edit these lists
    assert _call_sites("_block") == sorted(
        ["new_inequality", "solve", "solve_primal", "extract_dual", "certify", "lhv_bound"])
    assert _call_sites("_scaled") == sorted(["solve", "solve_primal", "extract_dual", "certify"])
    # the scale exponent comes from one helper; certify's also depends on lambda
    assert _call_sites("frexp", "sdp.py") == ["_scaled", "certify"]


def test_one_psd_proof_and_one_m_by_m_slack():
    # the spectral path, the gap gate and certify prove PSD by one routine, on
    # the smaller side's n x n matrix; the m x m slack is formed only for
    # certify's shift, where that proof fails, and for a stalled ascent's lift.
    # A second proof, or a gate that factors the m x m slack, has to edit these lists
    assert _call_sites("cholesky", "sdp.py") == ["_gram_proven"]
    assert _call_sites("_gram_proven", "sdp.py") == ["_proven", "_spectral"]
    assert _call_sites("_proven", "sdp.py") == ["_gap_proven", "certify", "certify"]
    assert _call_sites("_slack", "sdp.py") == ["_ascent", "certify"]
