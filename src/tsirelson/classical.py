"""Exact local-hidden-variable bounds by enumeration of deterministic strategies.

The maximum of a correlation expression over local classical models is
attained at a deterministic vertex of the local polytope, so it suffices to
scan sign assignments.  For a fixed Alice assignment x in {-1,+1}^k, Bob's
best response per setting is the sign of his column sum, so x scores
sum_t |(x c)_t| and only the smaller side is enumerated.  Strategy i has
x_s = -1 where bit s of i is set; x and -x (indices i, 2^k-1-i) tie and the
smaller index has its top bit clear, so scanning [0, 2^(k-1)) in index order
finds the first maximizer over all 2^k.

Up to 2^10 strategies are one product of sign rows with c, reduced along
the columns.  A longer scan writes (x c)_t = low[t, i mod 2^12] +
high[t, i >> 12]: the low table is built once, the high sums (which carry
x_{k-1} = +1) per block of consecutive high indices, and a block's scores
are accumulated one column at a time into an array laid out high index by
low index, so its flat argmax is the block's first maximizer.

No score or partial sum exceeds sum |c| in magnitude (average over the
signs it leaves out).  So for integral c the long scan runs in the narrowest
dtype that holds sum |c|: int16 below 2^15, int32 below 2^31, where every
score is exact and a block of the same bytes holds 4 or 2 times as many
strategies; otherwise float64, which is exact for integral c below 2^53.
In float64 the bound overflows exactly when some score does, and then some
block's best score is non-finite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry, TooLarge
from .inequality import _block

# One lhv_bound call on a random k x k in -3..3 (int16 scores), one BLAS
# thread, 2 vCPUs: k = 24 takes 0.05 s, 26 0.2 s, 28 0.8-1.0 s, 30 3.8 s; at
# 28 ru_maxrss rises 1.3 MiB.  float64 scores take about 4 times as long
# (Gaussian k = 28: 3.4 s).
ENUM_LIMIT = 30
_DIRECT = 1 << 10  # up to this many strategies, one product beats building tables
_LOW_BITS = 12
_BLOCK_BYTES = 1 << 18  # one block of scores: 256 KiB, which stays in cache


@dataclass(frozen=True)
class ClassicalBound:
    value: float
    witness_x: np.ndarray  # +-1 per Alice setting
    witness_y: np.ndarray  # +-1 per Bob setting


def _signs(first, count, bits):
    """(bits, count) signs of strategies first, first+1, ...: -1 where bit s is set."""
    return 1.0 - 2.0 * ((np.arange(first, first + count) >> np.arange(bits)[:, None]) & 1)


def _score_dtype(c):
    """int16 or int32 when c is integral and sum |c| fits, else float64."""
    total = np.abs(c).sum()
    if np.all(c == np.round(c)):
        for dtype in (np.int16, np.int32):
            if total <= np.iinfo(dtype).max:
                return dtype
    return np.float64


def _scores(c):
    """Yield (first strategy, scores) block by block, in scan order."""
    k, n = c.shape
    if 1 << (k - 1) <= _DIRECT:
        yield 0, np.abs(_signs(0, 1 << (k - 1), k).T @ c).sum(axis=1)
        return
    dtype = _score_dtype(c)

    def sums(sub, first, count):  # (n, count) column sums of the rows sub, in dtype
        return (sub.T @ _signs(first, count, len(sub))).astype(dtype, copy=False)

    b = min(k - 1, _LOW_BITS)
    h = b // 2  # two half tables: a 2^b-column sign matrix costs as much as a k = 16 scan
    low = np.add(sums(c[h:b], 0, 1 << (b - h))[:, :, None],
                 sums(c[:h], 0, 1 << h)[:, None, :]).reshape(n, 1 << b)
    highs = 1 << (k - 1 - b)
    rows = min(highs, _BLOCK_BYTES // (low.itemsize << b))
    acc, part = np.empty((2, rows, 1 << b), dtype)
    for start in range(0, highs, rows):
        high = sums(c[b:], start, rows)
        np.abs(np.add(high[0, :, None], low[0], out=acc), out=acc)
        for t in range(1, n):
            acc += np.abs(np.add(high[t, :, None], low[t], out=part), out=part)
        yield start << b, acc.ravel()


def lhv_bound(ineq):
    """Classical bound with an optimal deterministic strategy as witness.  Raises
    EmptyMatrix unless c is a non-empty 2-d array, NonFiniteEntry on a NaN or infinite
    entry or an overflowing bound, and TooLarge past ENUM_LIMIT on the smaller side."""
    return _lhv(_block(ineq.coefficients))


def _lhv(c):
    """lhv_bound on a checked block c (_block), as solve hands it over."""
    if min(c.shape) > ENUM_LIMIT:
        raise TooLarge(f"enumeration limited to {ENUM_LIMIT} settings per side")
    flip = c.shape[1] < c.shape[0]  # scan Bob's signs
    k = c.T if flip else c
    best_val, best_i = -np.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for first, score in _scores(k):
            i = int(np.argmax(score))  # lands on a NaN or inf if there is one
            if not np.isfinite(score[i]):
                raise NonFiniteEntry("classical bound overflows the float range")
            if score[i] > best_val:
                best_val, best_i = score[i], first + i
        x = np.array([1.0 - 2.0 * (best_i >> s & 1) for s in range(k.shape[0])])
        y = np.where(x @ k >= 0, 1.0, -1.0)
    return ClassicalBound(float(best_val), *((y, x) if flip else (x, y)))
