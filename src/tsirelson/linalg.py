"""Dense symmetric linear algebra: eigenvalues and Gram factorization.

min_eigenvalue, the PSD test on the certification path, calls LAPACK
(numpy.linalg.eigvalsh).  sym_eigen is a cyclic-by-row Jacobi iteration kept as
an independent oracle: it is deliberately self-contained so the spectrum
checks against the closed-form results, and the tests of min_eigenvalue, do
not share code with a library eigensolver.  It also serves vectors_from_gram.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NoConvergence, NonFiniteEntry, NotPSD

OFFDIAG_TOL = 1e-13
MAX_SWEEPS = 100
PSD_TOL = 1e-9


def symmetrize(m):
    """Return (M + M^T)/2 as a float array, as M/2 + M^T/2 so it cannot overflow."""
    m = np.asarray(m, dtype=float)
    return m / 2.0 + m.T / 2.0


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray  # sorted ascending
    eigenvectors: np.ndarray  # orthonormal columns, column k pairs with eigenvalue k


def _offdiag_norm(a):
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def sym_eigen(s):
    """Full spectral decomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Sweeps rotate away every off-diagonal pair in row order until the
    off-diagonal Frobenius norm drops below 1e-13 * ||S||_F, or raises
    NoConvergence after 100 sweeps.
    """
    a = symmetrize(s)
    n = a.shape[0]
    q = np.eye(n)
    norm_s = np.linalg.norm(a)
    if n == 1 or norm_s == 0.0:
        return _sorted_spectrum(np.diag(a).copy(), q)
    threshold = OFFDIAG_TOL * norm_s
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) <= threshold:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apq = a[p, r]
                if abs(apq) <= 1e-300:
                    continue
                diff = a[r, r] - a[p, p]
                if abs(apq) < abs(diff) * 1e-36:
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                # rotate rows/columns p and r
                row_p = a[p, :].copy()
                row_r = a[r, :].copy()
                a[p, :] = c * row_p - sn * row_r
                a[r, :] = sn * row_p + c * row_r
                col_p = a[:, p].copy()
                col_r = a[:, r].copy()
                a[:, p] = c * col_p - sn * col_r
                a[:, r] = sn * col_p + c * col_r
                qp = q[:, p].copy()
                qr = q[:, r].copy()
                q[:, p] = c * qp - sn * qr
                q[:, r] = sn * qp + c * qr
    else:
        resid = _offdiag_norm(a)
        if resid > threshold:
            raise NoConvergence(
                f"Jacobi sweep cap reached, off-diagonal residual {resid:.3e}",
                residual=resid,
            )
    return _sorted_spectrum(np.diag(a).copy(), q)


def _sorted_spectrum(vals, vecs):
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    # deterministic sign: first component of magnitude > 1e-12 made positive
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, k] = -col
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


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
    """Factor a PSD matrix G = B^T B and return the columns of B.

    Eigenvalues in [-tol, 0) are clipped to zero; anything below -tol raises
    NotPSD.  The vectors have length dim and reproduce G up to round-off.
    """
    spec = sym_eigen(g)
    vals = spec.eigenvalues.copy()
    if vals[0] < -tol:
        raise NotPSD(f"smallest eigenvalue {vals[0]:.3e} below -{tol:.1e}")
    vals[vals < 0.0] = 0.0
    b = np.sqrt(vals)[:, None] * spec.eigenvectors.T
    return [b[:, i].copy() for i in range(b.shape[1])]
