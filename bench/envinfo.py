"""Read-only record of the machine and of the BLAS thread settings in use.

The benchmark never sets a thread count: the program's own thread policy is
part of what it measures.  The two OpenBLAS builds (numpy's 64-bit-integer
one and scipy's) are separate libraries with separate thread pools, so both
are queried, through ctypes, in the process that runs the workload.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VBPP_THREADS")

# (package, library file pattern, symbol suffix)
_OPENBLAS = (("numpy", "libscipy_openblas64_*.so*", "64_"),
             ("scipy", "libscipy_openblas-*.so*", ""))


def _loaded_openblas(package: str, pattern: str):
    """The package's bundled OpenBLAS, only if this process already loaded it."""
    mod = sys.modules.get(package)
    if mod is None:
        return None
    libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), package + ".libs")
    for path in sorted(glob.glob(os.path.join(libdir, pattern))):
        try:
            return ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LOCAL)
        except OSError:
            continue
    return None


def _call(lib, name: str, restype):
    fn = getattr(lib, name, None)
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = restype
    value = fn()
    return value.decode() if isinstance(value, bytes) else value


def collect() -> dict:
    """Thread counts, library versions and machine facts; changes nothing."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": (len(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }
    for package, pattern, suffix in _OPENBLAS:
        lib = _loaded_openblas(package, pattern)
        if lib is None:
            env[f"blas_threads_{package}"] = None
            continue
        env[f"blas_threads_{package}"] = _call(
            lib, f"scipy_openblas_get_num_threads{suffix}", ctypes.c_int)
        env[f"openblas_config_{package}"] = _call(
            lib, f"scipy_openblas_get_config{suffix}", ctypes.c_char_p)
        env[f"cpu_core_{package}"] = _call(
            lib, f"scipy_openblas_get_corename{suffix}", ctypes.c_char_p)
    return env
