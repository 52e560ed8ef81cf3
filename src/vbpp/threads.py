"""BLAS thread policy: one thread for every BLAS call in vbpp.

numpy and scipy each bundle their own OpenBLAS, with separate thread pools
sized to the machine.  The bound works on small matrices (N x M, M in the
tens), where waking a second thread costs far more than the product itself
(10-200x on a two-core machine) and the fixed cost hides the bound's linear
scaling in N.  The joint covariance of Monte Carlo prediction holds the test
events plus the quadrature nodes (106 to 806 points on the benchmark's
models), too few to repay a second thread either.  So importing vbpp sets
both pools to one thread, and results do not depend on the core count.

A user who sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS
keeps the count OpenBLAS took from it everywhere.  Where neither bundled
OpenBLAS is loaded, nothing changes.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy  # noqa: F401  (loads numpy's OpenBLAS)
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

_USER_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (package, bundled library file pattern, thread-count getter)
_OPENBLAS = (("numpy", "libscipy_openblas64_*", "scipy_openblas_get_num_threads64_"),
             ("scipy", "libscipy_openblas-*", "scipy_openblas_get_num_threads"))


@dataclass(frozen=True)
class _Pool:
    package: str
    get: Callable[[], int]
    set_local: Callable[[int], int]  # sets the count, returns the previous one


def _loaded_pool(package: str, pattern: str, getter: str) -> _Pool | None:
    """The package's bundled OpenBLAS, only if this process has loaded it."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    root = os.path.dirname(sys.modules[package].__file__)
    for path in sorted(glob.glob(os.path.join(root + ".libs", pattern))):
        try:
            lib = ctypes.CDLL(path, mode=noload | os.RTLD_LOCAL)
            get = getattr(lib, getter)
            set_local = lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_local.argtypes, set_local.restype = [ctypes.c_int], ctypes.c_int
        return _Pool(package, get, set_local)
    return None


_POOLS = tuple(p for p in (_loaded_pool(*spec) for spec in _OPENBLAS) if p is not None)
# The policy applies only where the user has chosen no thread count.
_MANAGED = not any(os.environ.get(v) for v in _USER_VARS)
if _MANAGED:
    for _pool in _POOLS:
        _pool.set_local(1)


def pool_threads() -> dict[str, int]:
    """Current thread count of each bundled OpenBLAS pool, keyed by package."""
    return {p.package: p.get() for p in _POOLS}

