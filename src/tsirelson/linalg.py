"""Dense symmetric linear algebra: eigenvalues and Gram factorization.

Both eigen computations call LAPACK: min_eigenvalue, the PSD test on the
certification path, through numpy.linalg.eigvalsh, and vectors_from_gram,
which factors a Gram matrix at its numerical rank, through numpy.linalg.eigh.
"""

import numpy as np

from .errors import LengthMismatch, NonFiniteEntry, NotPSD

PSD_TOL = 1e-9


def symmetrize(m):
    """Return (M + M^T)/2 as a float array, as M/2 + M^T/2 so it cannot overflow."""
    m = np.asarray(m, dtype=float)
    return m / 2.0 + m.T / 2.0


def min_eigenvalue(s):
    """Smallest eigenvalue of (S + S^T)/2; the PSD test is min_eigenvalue(S) >= -tol.

    LAPACK reads one triangle only, hence the symmetrization.  Raises
    NonFiniteEntry on a NaN or infinite entry, which LAPACK does not reliably
    propagate into the result.
    """
    a = symmetrize(s)
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("matrix contains a non-finite entry")
    return float(np.linalg.eigvalsh(a)[0])


def gram_from_vectors(vectors):
    """Gram matrix G[i][j] = v_i . v_j of an equal-length vector collection."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise LengthMismatch("empty vector collection")
    length = vs[0].shape[0]
    if any(v.ndim != 1 or v.shape[0] != length for v in vs):
        raise LengthMismatch("vectors must all have the same length")
    b = np.stack(vs)
    return symmetrize(b @ b.T)


def vectors_from_gram(g, tol=PSD_TOL):
    """Factor a PSD matrix G = B^T B at its numerical rank; return the columns of B.

    An eigenvalue below -tol raises NotPSD.  Each eigen-direction whose
    eigenvalue is at most tol is dropped, so each vector's length is the
    number of eigenvalues above tol, and the inner products differ from G
    only by the dropped eigenvalues.  Raises NonFiniteEntry on a NaN or
    infinite entry.
    """
    a = symmetrize(g)
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("matrix contains a non-finite entry")
    vals, vecs = np.linalg.eigh(a)
    if vals[0] < -tol:
        raise NotPSD(f"smallest eigenvalue {vals[0]:.3e} below -{tol:.1e}")
    keep = vals > tol
    b = np.sqrt(vals[keep])[:, None] * vecs[:, keep].T
    return [b[:, i].copy() for i in range(b.shape[1])]
