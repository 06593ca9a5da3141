"""Exact local-hidden-variable bounds by enumeration of deterministic strategies.

The maximum of a correlation expression over local classical models is
attained at a deterministic vertex of the local polytope, so it suffices to
scan sign assignments.  For a fixed Alice assignment x in {-1,+1}^k, Bob's
best response per setting is the sign of his column sum, so x scores
sum_t |(x c)_t| and only the smaller side is enumerated.  Strategy i has
x_s = -1 where bit s of i is set; x and -x (indices i, 2^k-1-i) tie and the
smaller index has its top bit clear, so scanning [0, 2^(k-1)) finds the first
maximizer over all 2^k.  float64 is exact for integral c with sum |c| < 2^53
(every partial sum is an integer below 2^53).  No score or partial sum
exceeds the bound, so the bound overflows exactly when some score does.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry, TooLarge

ENUM_LIMIT = 30
_CHUNK = 1024


@dataclass(frozen=True)
class ClassicalBound:
    value: float
    witness_x: np.ndarray  # +-1 per Alice setting
    witness_y: np.ndarray  # +-1 per Bob setting


def _enumerate(c):
    k = c.shape[0]
    half = 1 << (k - 1)
    best_val, best_x = -np.inf, None
    for start in range(0, half, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, half))
        x = 1.0 - 2.0 * ((idx[:, None] >> np.arange(k)) & 1)
        vals = np.abs(x @ c).sum(axis=1)
        i = int(np.argmax(vals))  # lands on a NaN or inf if there is one
        if not np.isfinite(vals[i]):
            raise NonFiniteEntry("classical bound overflows the float range")
        if vals[i] > best_val:
            best_val, best_x = vals[i], x[i].copy()
    return best_val, best_x, np.where(best_x @ c >= 0, 1.0, -1.0)


def lhv_bound(ineq):
    """Classical bound with an optimal deterministic strategy as witness."""
    c = np.asarray(ineq.coefficients)
    na, nb = c.shape
    if min(na, nb) > ENUM_LIMIT:
        raise TooLarge(f"enumeration limited to {ENUM_LIMIT} settings per side")
    with np.errstate(over="ignore", invalid="ignore"):
        if nb < na:
            val, wy, wx = _enumerate(c.T)
        else:
            val, wx, wy = _enumerate(c)
    return ClassicalBound(value=float(val), witness_x=wx, witness_y=wy)
