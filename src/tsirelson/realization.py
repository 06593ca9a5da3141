"""Quantum realization of vector strategies on a maximally entangled state.

Given real unit vectors x_s, y_t of length N, pairwise anticommuting
generators C_1..C_N (tensor-product Pauli construction, dimension
d = 2^ceil(N/2)) turn each vector into a +-1-eigenvalue observable
sum_k v[k] C_k.  On the canonical maximally entangled state the correlation
<Psi| X (x) Y |Psi> then reproduces the inner product x . y exactly, because
<Psi| X (x) Y |Psi> = Tr(X Y^T)/d and Tr(C_k C_l) = d delta_kl.

correlation_table contracts the state once per Alice observable, using
<Psi| X (x) Y |Psi> = sum_jk (M^H X M)_jk Y_jk with M = psi reshaped to d x d.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    NotUnitVector,
    SettingCountMismatch,
    TooLarge,
)

MAX_GENERATORS = 20

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class QuantumRealization:
    dim: int
    observables_x: list
    observables_y: list
    psi: np.ndarray


def clifford_generators(n):
    """N pairwise anticommuting Hermitian involutions of dimension 2^ceil(N/2).

    Generator 2j-1 is Z^{(j-1)} (x) X (x) I..., generator 2j the same with Y,
    over m = ceil(N/2) qubit factors.
    """
    if n < 1 or n > MAX_GENERATORS:
        raise TooLarge(f"need 1 <= N <= {MAX_GENERATORS}, got {n}")
    qubits = (n + 1) // 2
    gens = []
    for k in range(n):
        j = k // 2  # qubit carrying the X/Y factor
        factors = [_PAULI_Z] * j
        factors.append(_PAULI_X if k % 2 == 0 else _PAULI_Y)
        factors.extend([_ID2] * (qubits - j - 1))
        mat = factors[0]
        for f in factors[1:]:
            mat = np.kron(mat, f)
        gens.append(mat)
    return gens


def maximally_entangled_state(d):
    """|Psi> = sum_i |ii> / sqrt(d) as a length-d^2 amplitude vector."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def realize(xs, ys):
    """Observables and state whose correlations equal the given inner products.

    Alice's observable for x is sum_k x[k] C_k; Bob's is the entrywise
    transpose of the analogous sum, which makes the trace identity land on
    x . y for real vectors.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    lengths = {v.shape[0] for v in xs + ys}
    if len(lengths) != 1:
        raise LengthMismatch("all vectors must have the same length")
    n = lengths.pop()
    for v in xs + ys:
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise NotUnitVector(f"vector norm {np.linalg.norm(v):.12f} is not 1")
    gens = clifford_generators(n)
    d = gens[0].shape[0]
    obs_x = [sum(v[k] * gens[k] for k in range(n)) for v in xs]
    obs_y = [sum(v[k] * gens[k] for k in range(n)).T.copy() for v in ys]
    return QuantumRealization(
        dim=d,
        observables_x=obs_x,
        observables_y=obs_y,
        psi=maximally_entangled_state(d),
    )


def correlation(x, y, psi):
    """<Psi| X (x) Y |Psi> by direct contraction of the state.

    The d^2 x d^2 tensor product is never materialized: reshaping psi to a
    d x d matrix M, (X (x) Y) psi is X M Y^T.
    """
    d = x.shape[0]
    if y.shape != (d, d) or psi.shape != (d * d,):
        raise DimensionMismatch("observable/state dimensions disagree")
    m = psi.reshape(d, d)
    val = np.vdot(psi, (x @ m @ y.T).reshape(-1))
    return float(val.real)


def correlation_trace(x, y):
    """Tr(X Y^T)/d, valid on the canonical maximally entangled state."""
    d = x.shape[0]
    if y.shape != (d, d):
        raise DimensionMismatch("observable dimensions disagree")
    return float(np.trace(x @ y.T).real / d)


def correlation_table(realization):
    """n_A x n_B matrix of <Psi| X_s (x) Y_t |Psi> over all setting pairs."""
    d, psi = realization.dim, realization.psi
    obs = realization.observables_x + realization.observables_y
    if psi.shape != (d * d,) or any(o.shape != (d, d) for o in obs):
        raise DimensionMismatch("observable/state dimensions disagree")
    m = psi.reshape(d, d)
    ys = np.stack(realization.observables_y).reshape(-1, d * d)
    rows = [ys @ (m.conj().T @ x @ m).reshape(-1) for x in realization.observables_x]
    return np.array(rows).real


def inequality_value(ineq, realization):
    """sum_{s,t} c[s][t] <Psi| X_s (x) Y_t |Psi> for a realized strategy."""
    c = ineq.coefficients
    if c.shape != (len(realization.observables_x), len(realization.observables_y)):
        raise SettingCountMismatch(
            f"inequality is {c.shape}, realization has "
            f"{len(realization.observables_x)}x{len(realization.observables_y)} settings"
        )
    return float(np.sum(c * correlation_table(realization)))
