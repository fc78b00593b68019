import ctypes
import os
from pathlib import Path

import numpy as np
import pytest


def test_bundled_openblas_runs_the_thread_count_of_the_environment():
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        pytest.skip("numpy does not bundle OpenBLAS")
    lib = ctypes.CDLL(str(libs[0]))
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            threads = getattr(lib, name)
            break
    else:
        pytest.skip("the bundled OpenBLAS exports no thread count query")
    threads.argtypes = []
    threads.restype = ctypes.c_int
    assert threads() == int(os.environ["OPENBLAS_NUM_THREADS"])
