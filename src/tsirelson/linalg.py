"""Dense symmetric linear algebra: eigenvalues and Gram factorization.

Both eigen computations call LAPACK: min_eigenvalue through
numpy.linalg.eigvalsh, which sdp.certify calls only to pick a shift where
its verified Cholesky test fails (the proof itself is the factorization),
and vectors_from_gram, which factors an m x m Gram matrix at its numerical
rank r (eigenvalues above PSD_TOL) through numpy.linalg.eigh and returns the
factor as an (m, r) array.
"""

import numpy as np

from .errors import NonFiniteEntry, NotPSD

PSD_TOL = 1e-9


def symmetrize(m):
    """Return (M + M^T)/2 as a float array, as M/2 + M^T/2 so it cannot overflow."""
    half = np.asarray(m, dtype=float) * 0.5
    return half + half.T


def min_eigenvalue(s):
    """Smallest eigenvalue of (S + S^T)/2; the PSD test is min_eigenvalue(S) >= -tol.

    LAPACK reads one triangle only, hence the symmetrization.  Raises
    NonFiniteEntry on a NaN or infinite entry, which LAPACK does not reliably
    propagate into the result.
    """
    a = symmetrize(s)
    if not np.isfinite(a).all():
        raise NonFiniteEntry("matrix contains a non-finite entry")
    return float(np.linalg.eigvalsh(a)[0])


def vectors_from_gram(g):
    """Factor a PSD m x m matrix G = V V^T at its numerical rank r; return V, m x r.

    An eigenvalue below -PSD_TOL raises NotPSD.  Each eigen-direction whose
    eigenvalue is at most PSD_TOL is dropped, so r is the number of
    eigenvalues above PSD_TOL, and the row inner products differ from G only
    by the dropped eigenvalues.  Raises NonFiniteEntry on a NaN or infinite
    entry.
    """
    a = symmetrize(g)
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("matrix contains a non-finite entry")
    vals, vecs = np.linalg.eigh(a)
    if vals[0] < -PSD_TOL:
        raise NotPSD(f"smallest eigenvalue {vals[0]:.3e} below -{PSD_TOL:.1e}")
    keep = vals > PSD_TOL
    return vecs[:, keep] * np.sqrt(vals[keep])
