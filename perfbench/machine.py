"""The machine record printed with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy


def _openblas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None when it is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe(dtype: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dtype": dtype,
        "platform": platform.platform(),
    }
