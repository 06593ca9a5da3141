"""Closed-form bounds, optimal vectors, and spectra for the chained CHSH family.

Everything here is independent of the numerical solver and serves as its
oracle: the quantum bound 2n cos(pi/2n), the classical bound 2n-2, explicit
optimal angle vectors, the all-equal dual multipliers, and the eigenvalues
gamma_s = 1 + exp(i pi (2s+1)/n) of the chained coefficient block (a
circulant-like matrix whose sign-flipped corner twists the usual roots of
unity by a half step).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize
from .inequality import chained
from .linalg import symmetrize


def _check_n(n):
    if n < 1:
        raise InvalidSize(f"chained family needs n >= 1, got {n}")


def chained_quantum_bound(n):
    """Tsirelson bound 2n cos(pi/2n) of the chained inequality."""
    _check_n(n)
    return 2.0 * n * np.cos(np.pi / (2 * n))


def chained_classical_bound(n):
    """Local-hidden-variable bound 2n - 2 of the chained inequality."""
    _check_n(n)
    return float(2 * n - 2)


def chained_primal_vectors(n):
    """Optimal unit vectors in R^{2n}: x_k at angle pi(2k-2)/2n, y_k at pi(2k-1)/2n.

    Every term of the chained expression then contributes cos(pi/2n).
    """
    _check_n(n)
    xs = np.zeros((n, 2 * n))
    ys = np.zeros((n, 2 * n))
    for k in range(1, n + 1):
        phi = np.pi / (2 * n) * (2 * k - 2)
        psi = np.pi / (2 * n) * (2 * k - 1)
        xs[k - 1, :2] = (np.cos(phi), np.sin(phi))
        ys[k - 1, :2] = (np.cos(psi), np.sin(psi))
    return xs, ys


def chained_dual_lambda(n):
    """Feasible dual multipliers cos(pi/2n) * (1,...,1), length 2n."""
    _check_n(n)
    return np.full(2 * n, np.cos(np.pi / (2 * n)))


@dataclass(frozen=True)
class ChainedSpectrum:
    n: int
    gammas: np.ndarray  # complex eigenvalues of the coefficient block A
    eigenvectors: np.ndarray  # column s is the (unnormalized) eigenvector for gamma_s
    sigmas: np.ndarray  # singular values of A
    w_max: float  # largest eigenvalue of the objective matrix W


def chained_A_spectrum(n):
    """Spectrum of the chained coefficient block and of the objective matrix.

    gamma_s = 1 + exp(i pi (2s+1)/n) with eigenvector (rho^{n-1},...,rho^0),
    rho = exp(-i pi (2s+1)/n); the eigen-identity is verified numerically.
    The objective matrix's eigenvalues are {+-sigma_s}, so its largest is
    max_s sigma_s = 2 cos(pi/2n).
    """
    _check_n(n)
    s = np.arange(n)
    phase = np.pi * (2 * s + 1) / n
    gammas = 1.0 + np.exp(1j * phase)
    rho = np.exp(-1j * phase)
    powers = np.arange(n - 1, -1, -1)
    vecs = rho[None, :] ** powers[:, None]
    a = chained(n).coefficients.T  # Bob x Alice block of W
    resid = np.abs(a @ vecs - gammas[None, :] * vecs).max()
    if resid > 1e-10:
        raise AssertionError(f"eigenvector identity violated, residual {resid:.3e}")
    sigmas = np.sqrt(np.maximum(0.0, 2.0 + 2.0 * np.cos(phase)))
    return ChainedSpectrum(
        n=n,
        gammas=gammas,
        eigenvectors=vecs,
        sigmas=sigmas,
        w_max=2.0 * np.cos(np.pi / (2 * n)),
    )


def chsh_known_solution():
    """The textbook optimal CHSH pair: Gram matrix G' and multipliers 1/sqrt(2)."""
    a = 1.0 / np.sqrt(2.0)
    g = symmetrize(
        [
            [1.0, 0.0, a, a],
            [0.0, 1.0, a, -a],
            [a, a, 1.0, 0.0],
            [a, -a, 0.0, 1.0],
        ]
    )
    lam = np.full(4, a)
    return g, lam

