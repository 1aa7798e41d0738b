"""Environment record stored with every benchmark result.

Timings and iteration counts depend on the BLAS thread count (a threaded
dot product sums in another order), so the record carries it beside the
library versions, the core count and the CPU's cache sizes.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key), encoding="utf-8") as handle:
                    fields[key] = handle.read().strip()
        except OSError:
            continue
        if fields["type"] != "Instruction":
            caches[f"L{fields['level']}"] = fields["size"]
    return caches


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
    }
