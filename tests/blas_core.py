"""The OpenBLAS core that numpy's bundled library runs on, and the row of a
pinned-digest table recorded under it.

That library is built with DYNAMIC_ARCH: it picks its kernels by CPU, or by
OPENBLAS_CORETYPE where that is set. GEMM kernels of another register width
sum in another order, so the digest of a BLAS result, or of anything trained
through one, holds on one core only. Each table of such digests therefore
has one row per core, keyed by the name scipy_openblas_get_corename64_
reports: "SkylakeX" on an AVX-512 CPU, "Haswell" on an AVX2-only one.
"""

import ctypes
import functools
import glob
import os

import numpy as np
import pytest


@functools.cache
def blas_core():
    """The core name of numpy's bundled OpenBLAS, or None where that library
    is not found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so")
    for lib in glob.glob(pattern):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def pinned(table: dict):
    """table's row for this process's BLAS core. A core with no row fails
    the test and names the core, rather than skipping it."""
    core = blas_core()
    if core not in table:
        pytest.fail(f"no pinned digests for OpenBLAS core {core!r}; "
                    f"rows exist for {sorted(table)}")
    return table[core]
