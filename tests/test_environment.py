"""The test environment: BLAS pinned to one thread by conftest."""

import ctypes
import os

import numpy  # noqa: F401  (loads numpy's BLAS)
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS, if it bundles one)

# the thread-count getter under the names OpenBLAS builds export
GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def _openblas_getters():
    """The thread-count getters of every OpenBLAS library this process has loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    getters = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        getters += [getattr(lib, name) for name in GETTERS if hasattr(lib, name)]
    return getters


def test_openblas_runs_on_one_thread():
    if os.environ.get("OPENBLAS_NUM_THREADS", "1") != "1":
        pytest.skip("OPENBLAS_NUM_THREADS set by the caller")
    getters = _openblas_getters()
    if not getters:
        pytest.skip("no openblas_get_num_threads symbol found")
    for getter in getters:
        getter.restype = ctypes.c_int
        assert getter() == 1
