"""One thread budget for the package: frame blocks and BLAS threads.

Frame-wise work (the solve's kernels, ``measure``, ``forward_op`` and
``adjoint_op``) runs on contiguous blocks of frames, one block per
worker, through :class:`_FrameBlocks`. Every kernel writes each entry of
its block from that block's inputs alone, so results are bit-identical
for any worker count. The linear algebra runs BLAS on one thread while
:data:`_ONE_BLAS_THREAD` is held, so its results do not depend on the
host's BLAS thread count either.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading

import numpy as np

# Frame blocks get a thread only from 2**17 voxels per worker on. Measured
# on 2 cores (baseline solve, ms/iter on one worker against two): 64x64x8
# 3.35/3.84 and 160x160x8 28.2/29.1 lose on two, 128x128x8 and 128x128x16
# tie, 192x192x8 41.8/28.6 and 128x128x20 45.6/30.6 win.
_VOXELS_PER_WORKER = 2**17


def _worker_count(frames: int, rows: int, cols: int) -> int:
    # One worker per core this process may run on (every core where the
    # platform cannot tell), but never more workers than frames, nor one
    # for fewer than _VOXELS_PER_WORKER voxels.
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, frames, frames * rows * cols // _VOXELS_PER_WORKER))


class _FrameBlocks:
    """Runs a kernel on contiguous parts of an axis, one part per worker.

    The worker count is :func:`_worker_count` of the (frames, rows, cols)
    shape given. :meth:`split` runs a kernel on one contiguous part of
    ``range(count)`` per worker (none empty); the calling thread runs the
    first part and pool threads the rest, each in a copy of the calling
    thread's context, so under its ``np.errstate``; an exception in a
    part is raised on the calling thread. The parts for a count are cut
    the first time it is split and kept. :meth:`run` splits the frame
    axis of the stacks it is given. On one worker there is no pool;
    otherwise it lives only as long as the ``with`` block, whose exit
    waits for every part still running.
    """

    def __init__(self, shape: tuple[int, int, int]):
        self._frames = shape[0]
        self._workers = _worker_count(*shape)
        self._parts = {}
        self._pool = None
        if self._workers > 1:
            # Imported here: a process that never runs a pool (small
            # stacks) does not load the thread-pool modules, about 0.6 MB
            # resident.
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self._workers - 1)

    def __enter__(self) -> "_FrameBlocks":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def _cut(self, count: int) -> tuple[slice, list[slice]]:
        edges = [count * w // self._workers for w in range(self._workers + 1)]
        first, *rest = [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
        return first, rest

    def split(self, kernel, count: int) -> None:
        # Called on the calling thread only, so the cache needs no lock.
        if count not in self._parts:
            self._parts[count] = self._cut(count)
        first, rest = self._parts[count]
        jobs = [self._pool.submit(contextvars.copy_context().run, kernel, part)
                for part in rest]
        kernel(first)
        for job in jobs:
            job.result()

    def run(self, kernel, *stacks: np.ndarray, **params) -> None:
        # Stacks are cut into frame blocks; keyword parameters go to every block.
        self.split(lambda block: kernel(*(stack[block] for stack in stacks), **params),
                   self._frames)


# NumPy's bundled OpenBLAS exports its thread-count calls under one of
# these (get, set) name pairs; MKL and Accelerate builds export none.
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _blas_thread_calls():
    """(get, set) of the BLAS thread count NumPy uses, or None."""
    return _find_blas_thread_calls(_BLAS_THREAD_CALLS)


@functools.cache
def _find_blas_thread_calls(names):
    # Looked up once per process (and per names tuple, so replacing
    # _BLAS_THREAD_CALLS takes effect). Symbols looked up through NumPy's
    # core extension are found in the BLAS library it links.
    try:
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (OSError, AttributeError):
        return None
    for get_name, set_name in names:
        get = getattr(library, get_name, None)
        set_ = getattr(library, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread:
    """Holds NumPy's BLAS at one thread while a solve or a public operator runs.

    The package's BLAS calls are the SVT products, the dense row
    products, the squared norms, the dot products of ``inner_product``
    and ``frobenius_norm`` and the SVD of ``nuclear_norm``. At these
    sizes threads make them no faster, and after a threaded call
    OpenBLAS's workers keep spinning on the other cores, which the frame
    blocks need. One thread also makes every such result independent of
    the host's BLAS thread count: a threaded product sums in another
    order.

    The count belongs to the process, so holders overlapping in several
    threads share one hold: the first to enter saves the count and sets 1,
    the last to leave restores it, on every exit path. Where the BLAS
    exports no thread-count call this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._restore = None

    def __enter__(self) -> None:
        with self._lock:
            if self._holders == 0:
                calls = _blas_thread_calls()
                if calls is not None:
                    get, set_ = calls
                    self._restore = functools.partial(set_, get())
                    set_(1)
            self._holders += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._restore is not None:
                self._restore()
                self._restore = None


_ONE_BLAS_THREAD = _OneBlasThread()
