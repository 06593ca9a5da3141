"""Host speed, sampled between jobs so that timings can be scaled to one nominal speed.

On a shared two-vCPU host the same ``solve(chained(16))`` call was measured
at 130 ms to 260 ms, and whole 20-second runs of identical work differed by
up to 70%: other tenants slow the machine for stretches of seconds to
minutes.  A fixed kernel timed just before and just after a job slows down
with it.  Dividing a job's latency by the kernel's time around it, and
multiplying by ``NOMINAL_S``, gives the job's latency at the speed at which
the kernel takes ``NOMINAL_S``.

The kernel is two Python loops over small numpy arrays, the patterns of the
library's hot paths: row updates as in the primal sweep and the Jacobi
rotations, and sign vectors as in the LHV enumeration.  Interleaved with
those calls on a contended host, it cut the spread of medians of repeated
calls from about 50% to 5-20%; a pure-Python loop or a dense complex product
tracked the library worse.  It does not call the library, so a change to the
library cannot change the scale.
"""

import time

import numpy as np

NOMINAL_S = 0.0022  # the kernel's fastest time on an Intel Xeon vCPU, numpy 2.4, one BLAS thread


class HostSpeed:
    nominal_s = NOMINAL_S

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._w = rng.standard_normal((32, 32))
        self._v = rng.standard_normal((32, 8))
        self._c = rng.integers(-3, 4, size=(12, 12))

    def sample(self):
        """Seconds taken by one run of the fixed kernel."""
        start = time.perf_counter()
        x = self._v.copy()  # a sweep of row updates, as in the primal solver
        for _ in range(8):
            for i in range(32):
                g = self._w[i] @ x
                x[i] = g / np.linalg.norm(g)
        best = 0  # sign vectors built one by one, as in the LHV enumeration
        for idx in range(300):
            signs = np.array([1 - 2 * ((idx >> s) & 1) for s in range(12)], dtype=np.int64)
            best = max(best, int(np.abs(signs @ self._c).sum()))
        return time.perf_counter() - start

    def samples(self, count=2):
        return [self.sample() for _ in range(count)]
