"""One BLAS thread for the whole suite, as the benchmark harness runs.

A sparse solve's raw bytes depend on the OpenBLAS thread count, and on a
small host the extra threads spin rather than help. The variables take
effect only if they are set before numpy is first imported, which pytest
does not do before it loads this file.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
