"""Pin BLAS to one thread before any test module imports numpy.

A multithreaded OpenBLAS slows the determinant-heavy tests by an order of
magnitude whenever another process keeps a core busy. A value already set in
the environment is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
