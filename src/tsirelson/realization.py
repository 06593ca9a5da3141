"""Quantum realization of vector strategies on a maximally entangled state.

Given real unit vectors x_s, y_t of length N, pairwise anticommuting
generators C_1..C_N (tensor-product Pauli construction, dimension
d = 2^floor(N/2), Tsirelson 1987) turn each vector into a +-1-eigenvalue observable
sum_k v[k] C_k.  On the canonical maximally entangled state the correlation
<Psi| X (x) Y |Psi> then reproduces the inner product x . y exactly, because
<Psi| X (x) Y |Psi> = Tr(X Y^T)/d and Tr(C_k C_l) = d delta_kl.

correlation_table contracts the state with all of Alice's observables at once,
by <Psi| X (x) Y |Psi> = sum_jk (M^H X M)_jk Y_jk, M = psi reshaped to d x d.
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


@dataclass(frozen=True)
class QuantumRealization:
    dim: int
    observables_x: list
    observables_y: list
    psi: np.ndarray


def _pauli_terms(n):
    """The one nonzero per row of each generator, by index arithmetic.

    Each generator is a Pauli string, so it has one nonzero per row.  Counting
    from 0, generators 2j (X) and 2j+1 (Y) have it in row i at column i XOR b,
    b the bit of qubit j.  Its value is (-1)^(parity of i's bits on qubits
    0..j-1, the Z factors), times 1 for X, or times -i or +i for Y as i's bit
    on qubit j is 0 or 1.  For odd n the last generator is the parity string,
    Z on every qubit: real, diagonal, and anticommuting with every X and Y
    string.  Returns the rows 0..d-1 and, per qubit j (then the parity, with
    no Y), the columns and the real sign of X and imaginary sign of Y.
    """
    if n < 1 or n > MAX_GENERATORS:
        raise TooLarge(f"need 1 <= N <= {MAX_GENERATORS}, got {n}")
    qubits = n // 2
    rows = np.arange(1 << qubits)
    terms = []
    sign = np.ones(len(rows))  # (-1)^(parity of the bits on qubits 0..j-1)
    for j in range(qubits):
        b = 1 << (qubits - 1 - j)  # qubit 0 is the most significant bit
        bit = (rows & b) != 0
        terms.append((rows ^ b, sign, np.where(bit, sign, -sign)))
        sign = np.where(bit, -sign, sign)
    if n % 2:
        terms.append((rows, sign, None))
    return rows, terms


def _observables(coeffs, rows, terms):
    """sum_k coeffs[s, k] C_k for each row s, as one (len(coeffs), d, d) array.

    rows and terms are _pauli_terms(n), n = coeffs.shape[1].  Different
    qubits fill different columns of a row, so each entry of the sum is one
    term, the real part from an X generator and the imaginary part from a Y:
    it is written in place, and the generators are never formed.
    """
    n, d = coeffs.shape[1], len(rows)
    out = np.zeros((len(coeffs), d * d), dtype=complex)
    for j, (cols, x_sign, y_sign) in enumerate(terms):
        at = rows * d + cols
        out.real[:, at] = coeffs[:, 2 * j, None] * x_sign
        if 2 * j + 1 < n:
            out.imag[:, at] = coeffs[:, 2 * j + 1, None] * y_sign
    return out.reshape(-1, d, d)


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
    rows, terms = _pauli_terms(n)  # TooLarge unless 1 <= n <= MAX_GENERATORS
    stacked = np.vstack([np.reshape(xs, (-1, n)), np.reshape(ys, (-1, n))])
    norms = np.linalg.norm(stacked, axis=1)
    if (off := ~(np.abs(norms - 1.0) <= 1e-10)).any():  # NaN is off too
        raise NotUnitVector(f"vector norm {norms[off.argmax()]:.12f} is not 1")
    # C_k is symmetric for X (even k) and antisymmetric for Y (odd k), so
    # Bob's transposed sum is the sum with his Y coefficients negated
    stacked[len(xs):] *= np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    obs = _observables(stacked, rows, terms)
    d = obs.shape[1]
    return QuantumRealization(
        dim=d,
        observables_x=list(obs[: len(xs)]),
        observables_y=list(obs[len(xs) :]),
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


def correlation_table(realization):
    """n_A x n_B matrix of <Psi| X_s (x) Y_t |Psi> over all setting pairs."""
    d, psi = realization.dim, realization.psi
    obs = realization.observables_x + realization.observables_y
    if psi.shape != (d * d,) or any(o.shape != (d, d) for o in obs):
        raise DimensionMismatch("observable/state dimensions disagree")
    m = psi.reshape(d, d)
    xs = m.conj().T @ np.array(realization.observables_x).reshape(-1, d, d) @ m
    ys = np.array(realization.observables_y).reshape(-1, d * d)
    return (xs.reshape(-1, d * d) @ ys.T).real


def inequality_value(ineq, realization):
    """sum_{s,t} c[s][t] <Psi| X_s (x) Y_t |Psi> for a realized strategy."""
    c = ineq.coefficients
    if c.shape != (len(realization.observables_x), len(realization.observables_y)):
        raise SettingCountMismatch(
            f"inequality is {c.shape}, realization has "
            f"{len(realization.observables_x)}x{len(realization.observables_y)} settings"
        )
    return float(np.sum(c * correlation_table(realization)))
