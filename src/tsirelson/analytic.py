"""Closed forms for the chained CHSH family that the CLI reports.

The quantum bound 2n cos(pi/2n) is bound's and table's analytic_bound; the
eigenvalues gamma_s = 1 + exp(i pi (2s+1)/n) of the chained coefficient block
(a circulant-like matrix whose sign-flipped corner twists the usual roots of
unity by a half step) are what spectrum prints.  Both are independent of the
numerical solver.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize


def _check_n(n):
    if n < 1:
        raise InvalidSize(f"chained family needs n >= 1, got {n}")


def _top_sigma(n):
    """sigma_1 = 2 cos(pi/2n) of the chained block (the sine form rounds worse); 0 at n = 1."""
    return 2.0 * np.cos(np.pi / (2 * n)) if n > 1 else 0.0


def chained_quantum_bound(n):
    """Tsirelson bound 2n cos(pi/2n) of the chained inequality: 0 at n = 1."""
    _check_n(n)
    return n * _top_sigma(n)


@dataclass(frozen=True)
class ChainedSpectrum:
    n: int
    gammas: np.ndarray  # complex eigenvalues of the coefficient block A
    sigmas: np.ndarray  # singular values of A
    w_max: float  # largest eigenvalue of the objective matrix W


def chained_A_spectrum(n):
    """Spectrum of the chained coefficient block and of the objective matrix.

    gamma_s = 1 + exp(i pi (2s+1)/n) with eigenvector (rho^{n-1},...,rho^0),
    rho = exp(-i pi (2s+1)/n).
    The objective matrix's eigenvalues are {+-sigma_s}, so its largest is
    max_s sigma_s = 2 cos(pi/2n), n times which is chained_quantum_bound.
    """
    _check_n(n)
    s = np.arange(n)
    phase = np.pi * (2 * s + 1) / n
    gammas = 1.0 + np.exp(1j * phase)
    sigmas = np.sqrt(np.maximum(0.0, 2.0 + 2.0 * np.cos(phase)))
    return ChainedSpectrum(
        n=n,
        gammas=gammas,
        sigmas=sigmas,
        w_max=_top_sigma(n),
    )
