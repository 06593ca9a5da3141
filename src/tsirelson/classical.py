"""Exact local-hidden-variable bounds by enumeration of deterministic strategies.

The maximum of a correlation expression over local classical models is
attained at a deterministic vertex of the local polytope, so it suffices to
scan sign assignments.  For a fixed Alice assignment x in {-1,+1}^nA, Bob's
best response per setting is the sign of his column sum, so only the smaller
side is enumerated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry, TooLarge

ENUM_LIMIT = 30


@dataclass(frozen=True)
class ClassicalBound:
    value: float
    witness_x: np.ndarray  # +-1 per Alice setting
    witness_y: np.ndarray  # +-1 per Bob setting


def _enumerate(c):
    # rows are enumerated; entries exact int64 when integral and size*max|c| < 2^53
    integral = np.all(c == np.round(c)) and np.abs(c).max() < 2.0**53 / c.size
    mat = np.round(c).astype(np.int64) if integral else c
    k, _ = mat.shape
    best_val = None
    best_x = None
    for idx in range(1 << k):
        x = np.array([1 if (idx >> s) & 1 == 0 else -1 for s in range(k)], dtype=mat.dtype)
        val = np.abs(x @ mat).sum()
        if best_val is None or val > best_val:
            best_val = val
            best_x = x
    cols = best_x @ mat
    y = np.where(cols >= 0, 1, -1).astype(best_x.dtype)
    return best_val, best_x, y


def lhv_bound(ineq):
    """Classical bound with an optimal deterministic strategy as witness."""
    c = np.asarray(ineq.coefficients)
    na, nb = c.shape
    if min(na, nb) > ENUM_LIMIT:
        raise TooLarge(f"enumeration limited to {ENUM_LIMIT} settings per side")
    # A float overflow while scoring any strategy means the bound itself
    # overflows: every partial column sum is at most the bound.
    try:
        with np.errstate(over="raise", invalid="raise"):
            if nb < na:
                val, wy, wx = _enumerate(c.T)
            else:
                val, wx, wy = _enumerate(c)
    except FloatingPointError as exc:
        raise NonFiniteEntry("classical bound overflows the float range") from exc
    return ClassicalBound(value=float(val), witness_x=wx, witness_y=wy)
