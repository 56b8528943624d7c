"""What a benchmark result was measured on: interpreter, NumPy, BLAS, cores.

Also sets the one process setting the benchmark changes: glibc's
allocator keeps freed memory instead of returning it to the kernel.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

# glibc mallopt() parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> int | None:
    """Thread count the loaded BLAS reports, or None if it cannot be asked."""
    for path in _loaded_blas_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(library, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def retain_freed_memory() -> bool:
    """Make glibc keep freed memory in the process; False if it cannot.

    By default glibc maps large blocks (NumPy arrays of a few MB) afresh
    and unmaps them on free, so every operation pays a minor page fault
    per page it touches. On a virtual machine the cost of those faults
    drifts with the host's load: on cli-pipeline they took a quarter of
    a chain, and within two minutes they made it 14 to 55 % slower. With no
    mapping threshold below 1 GiB and no trimming, freed blocks are
    reused and a warmed-up operation takes no page faults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 1 << 30)) and \
        bool(mallopt(_M_TRIM_THRESHOLD, 2**31 - 1))


def describe(retains_freed_memory: bool | None = None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "malloc_retains_freed_memory": retains_freed_memory,
    }
