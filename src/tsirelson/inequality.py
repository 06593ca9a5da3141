"""Correlation Bell inequalities and their reference SDP objective.

An inequality is a coefficient matrix c[s][t] weighting the correlator
<X_s Y_t>.  The objective matrix W places those coefficients in the
off-diagonal blocks of a symmetric (nA+nB) x (nA+nB) matrix so that
(1/2) Tr(G W) equals sum_{s,t} c[s][t] (x_s . y_t) for any Gram matrix G
of the stacked vectors (x_1..x_nA, y_1..y_nB).  W is the reference
objective: the solver reads c alone, and build_objective serves callers
that want the matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMatrix, InvalidSize, NonFiniteEntry


@dataclass(frozen=True)
class CorrelationInequality:
    name: str
    coefficients: np.ndarray = field(repr=False)

    @property
    def n_alice(self):
        return self.coefficients.shape[0]

    @property
    def n_bob(self):
        return self.coefficients.shape[1]


def _block(c):
    """c as a float array: EmptyMatrix unless it is 2-d and non-empty, and
    NonFiniteEntry when it has a NaN or infinite entry.  The library's one
    check of a coefficient block, here and on entry to sdp."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or not c.size:
        raise EmptyMatrix("coefficient matrix must be a non-empty 2-d array")
    if not np.isfinite(c).all():
        raise NonFiniteEntry("coefficient matrix contains a non-finite entry")
    return c


def new_inequality(name, coefficients):
    """Build an inequality from a coefficient matrix (copied, made read-only)."""
    if not name:
        raise EmptyMatrix("inequality name must be non-empty")
    c = _block(np.array(coefficients, dtype=float))
    c.setflags(write=False)
    return CorrelationInequality(name=name, coefficients=c)


def chsh():
    """The standard CHSH inequality <X1Y1> + <X1Y2> + <X2Y1> - <X2Y2>."""
    return new_inequality("chsh", [[1, 1], [1, -1]])


def chained(n):
    """Chained CHSH inequality with n settings per side.

    sum_i <X_i Y_i> + sum_i <X_{i+1} Y_i> - <X_1 Y_n>.  For n=1 the two
    terms cancel and the zero inequality is returned.
    """
    if n < 1:
        raise InvalidSize(f"chained inequality needs n >= 1, got {n}")
    c = np.zeros((n, n))
    for i in range(n):
        c[i, i] += 1.0
    for i in range(n - 1):
        c[i + 1, i] += 1.0
    c[0, n - 1] += -1.0
    return new_inequality(f"chained-{n}", c)


def gisin(n):
    """Gisin's n-setting inequality: +1 where s+t <= n+1, -1 elsewhere (1-based)."""
    if n < 1:
        raise InvalidSize(f"gisin inequality needs n >= 1, got {n}")
    c = np.fromfunction(lambda s, t: np.where(s + t + 2 <= n + 1, 1.0, -1.0), (n, n))
    return new_inequality(f"gisin-{n}", c)


def build_objective(ineq):
    """Symmetric objective matrix W with the coefficients in the off-diagonal blocks.

    Indices 0..nA-1 are Alice's vectors, nA..nA+nB-1 Bob's.  The Bob x Alice
    block is the transpose of the coefficient matrix, so that
    (1/2) Tr(G W) = sum c[s][t] x_s . y_t.
    """
    na, nb = ineq.n_alice, ineq.n_bob
    m = na + nb
    w = np.zeros((m, m))
    w[:na, na:] = ineq.coefficients
    w[na:, :na] = ineq.coefficients.T
    return w
