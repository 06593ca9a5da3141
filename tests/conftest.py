"""Run the suite on one BLAS thread.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, so it is set here,
before any test module imports numpy.  At its default thread count a
2-vCPU machine with one core busy ran tests/test_sdp.py about 30 times slower.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
