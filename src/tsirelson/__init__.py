"""Certified quantum (Tsirelson) and classical bounds for two-party
two-outcome correlation Bell inequalities."""

from .analytic import chained_A_spectrum, chained_quantum_bound
from .classical import ClassicalBound, lhv_bound
from .inequality import (
    CorrelationInequality,
    build_objective,
    chained,
    chsh,
    gisin,
    new_inequality,
)
from .linalg import min_eigenvalue
from .realization import (
    QuantumRealization,
    correlation,
    inequality_value,
    realize,
)
from .sdp import (
    BoundReport,
    DualCertificate,
    PrimalSolution,
    certify,
    extract_dual,
    solve,
    solve_primal,
)

__all__ = [
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
