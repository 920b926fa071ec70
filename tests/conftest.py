"""Suite-wide settings: BLAS runs on one thread, as the benchmark runs its children.

A threaded BLAS slows by orders of magnitude when another busy process shares
the cores, so one thread keeps each test's time steady. BLAS reads these
variables once, when numpy loads it, and pytest imports this file before any
test module imports numpy. A variable already set by the caller is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
