"""Dense symmetric linear algebra: the smallest eigenvalue, and a rank threshold.

min_eigenvalue calls LAPACK through numpy.linalg.eigvalsh; sdp.certify calls
it only to pick a shift where its verified Cholesky test fails (the proof
itself is the factorization).  PSD_TOL is the numerical-rank threshold on
Gram eigenvalues: realize keeps the singular directions of the primal factor
whose squared singular value exceeds it.
"""

import numpy as np

from .errors import EmptyMatrix, LengthMismatch, NonFiniteEntry

PSD_TOL = 1e-9


def symmetrize(m):
    """Return (M + M^T)/2 as a float array, as M/2 + M^T/2 so it cannot overflow."""
    half = np.asarray(m, dtype=float) * 0.5
    return half + half.T


def min_eigenvalue(s):
    """Smallest eigenvalue of (S + S^T)/2; the PSD test is min_eigenvalue(S) >= -tol.

    LAPACK reads one triangle only, hence the symmetrization.  Raises
    LengthMismatch unless S is square, EmptyMatrix when it is 0 x 0, and
    NonFiniteEntry on a NaN or infinite entry, which LAPACK does not reliably
    propagate into the result.
    """
    shape = np.shape(s)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise LengthMismatch(f"matrix has shape {shape}, expected a square one")
    if not shape[0]:
        raise EmptyMatrix("matrix must be non-empty")
    a = symmetrize(s)
    if not np.isfinite(a).all():
        raise NonFiniteEntry("matrix contains a non-finite entry")
    return float(np.linalg.eigvalsh(a)[0])
