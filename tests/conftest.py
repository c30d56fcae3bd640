"""Test-session set-up: OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS
is already set.

pytest imports this file before any test module, so before numpy loads. At
the GEMM sizes of these tests a second thread adds CPU time and no speed. A
test that needs threaded BLAS starts a process with its own value.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
