import importlib

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
    "chained_classical_bound",
    "chained_dual_lambda",
    "chained_primal_vectors",
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
    "vectors_from_gram",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(tsirelson.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(tsirelson, name), name


@pytest.mark.parametrize(
    "module, name",
    [
        ("linalg", "gram_from_vectors"),
        ("inequality", "objective_value"),
        ("analytic", "chsh_known_solution"),
        ("realization", "clifford_generators"),
    ],
)
def test_test_only_helpers_are_not_in_the_library(module, name):
    # they live in tests/oracles.py
    assert not hasattr(importlib.import_module(f"tsirelson.{module}"), name)
    assert not hasattr(tsirelson, name)
