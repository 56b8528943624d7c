"""Primal-dual reconstruction of dynamic sequences from masked k-space.

Two solvers share one iteration skeleton. The baseline minimizes

    1/2 ||A x - b||^2 + lambda1 * TV(x) + lambda2 * ||x||_*

with A the masked unitary DFT, TV the anisotropic per-frame total
variation, and the nuclear norm taken on the Casorati matrix. The full
method additionally decomposes x into a low-rank part x' plus an error
term eps (x ~ x' + eps, coupled with weight tau), regularizing both; the
extra degrees of freedom absorb motion-induced aliasing that a single
low-rank fit cannot.

The non-smooth TV term is handled through its dual: a field y in the
entrywise unit ball with TV(x) = max_y <grad x, y>. Each iteration takes
a proximal-gradient step in the primal variables (gradient step on the
smooth terms, then singular value thresholding) followed by a projected
ascent step in y driven by an over-relaxed primal point. The unitary
DFT times a 0/1 mask has unit spectral norm, so the primal step scaling
is t1/(1+t1) with no operator-norm estimation.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CallbackError, DimensionError, DivergenceError
from .metrics import _psnr_rmse, _reference
from .operators import (
    DualField,
    _dft2,
    _frame_squared_norms,
    _idft2,
    _NonFiniteInput,
    _shrink_to_unit_disc,
    _svt,
)
from .sampling import _as_stack_and_mask
from .sequence import _as_pair, _largest_part, _rescaled

# Spectral norm of the measurement operator (unitary DFT composed with a
# binary mask); exact, not estimated.
OPERATOR_NORM = 1.0

IterationCallback = Callable[[int, float, "float | None", "float | None"], None]


@dataclass(frozen=True)
class SolverConfig:
    """Weights, step sizes, and stopping rules for both solvers.

    All defaults are tunables chosen for unit-normalized data, not
    physical constants. The coupling term tau*(x' + eps) enters the
    x-update additively with no compensating renormalization, so it is
    mildly expansive: tau well below 1e-1 keeps long runs stable, and
    larger values trade stability for coupling strength.
    ``epsilon_threshold=None`` resolves to ``1/(2*tau)``, the exact
    proximal threshold of the error subproblem (infinite when
    ``tau == 0``, freezing the error term at zero).
    Weights, step sizes, ``tol_re`` and ``epsilon_threshold`` must be
    real numbers, not bools, and finite (only ``epsilon_threshold`` may be
    +inf), and ``max_iters`` an integer, so the solve loop never sees a
    NaN step or a fractional count. Every violation is a ValueError that
    names the field.
    """

    lambda1: float = 5e-2
    lambda2: float = 3e-1
    tau: float = 5e-3
    t1: float = 1.0 / math.sqrt(8.0)
    t2: float = 1.0 / math.sqrt(8.0)
    epsilon_threshold: float | None = None
    max_iters: int = 1000
    tol_re: float = 1e-7

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "tau", "t1", "t2", "tol_re", "epsilon_threshold"):
            value = getattr(self, name)
            if name == "epsilon_threshold" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (math.isfinite(value) or name == "epsilon_threshold"):
                raise ValueError(f"{name} must be finite, got {value}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("step sizes t1 and t2 must be positive")
        if self.epsilon_threshold is not None and not self.epsilon_threshold >= 0:
            raise ValueError("epsilon_threshold must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol_re > 0:
            raise ValueError("tol_re must be positive")

    def resolved_epsilon_threshold(self) -> float:
        if self.epsilon_threshold is not None:
            return self.epsilon_threshold
        if self.tau == 0.0:
            return math.inf
        return 1.0 / (2.0 * self.tau)


@dataclass
class SolverState:
    """The final state of a solve: primal stacks and dual field."""

    x: np.ndarray
    x_prime: np.ndarray
    eps: np.ndarray
    y: DualField


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: the reconstruction plus per-iteration records."""

    reconstruction: np.ndarray
    iterations: int
    re_series: tuple[float, ...]
    psnr_series: tuple[float, ...] | None
    rmse_series: tuple[float, ...] | None
    duration_seconds: float
    terminated_by: str
    final_state: SolverState = field(repr=False, default=None)


def _squared_norm(x: np.ndarray) -> float:
    # The per-frame norms summed in frame order, as the solve loop sums
    # those its dual kernel writes.
    norms = np.empty(len(x))
    _frame_squared_norms(x, norms)
    return sum(norms.tolist())


def _relative_error(x_next: np.ndarray, x_prev: np.ndarray,
                    change_sq: float, prev_sq: float) -> float:
    # change_sq and prev_sq are ||x_next - x_prev||^2 and ||x_prev||^2.
    # For finite stacks either overflows to +inf once entries pass about
    # 1e154, and ||x_prev||^2 underflows (to 0, or to a subnormal with
    # few digits left) once they fall below about 1e-154. The ratio does
    # not depend on scale, so it is then taken on copies rescaled by the
    # power of two that brings the largest real or imaginary part of the
    # two into [1/2, 1) (the difference of such copies cannot overflow
    # either); a zero largest part means both are zero.
    if (not (math.isfinite(change_sq) and math.isfinite(prev_sq))
            or prev_sq < sys.float_info.min):
        largest = max(_largest_part(x_next), _largest_part(x_prev))
        if largest == 0.0:
            return 0.0
        x_next, x_prev = (_rescaled(z, largest)[0] for z in (x_next, x_prev))
        change_sq = _squared_norm(x_next - x_prev)
        prev_sq = _squared_norm(x_prev)
    if prev_sq == 0.0:
        return 0.0 if change_sq == 0.0 else math.inf
    return change_sq / prev_sq


def relative_error(x_next, x_prev) -> float:
    """Squared-norm change ratio ||x_next - x_prev||^2 / ||x_prev||^2.

    Both zero gives 0 (already converged at zero); a nonzero step away
    from an exactly zero iterate gives the +inf sentinel. The ratio is
    finite for any finite stacks, even where the squared norms overflow
    or underflow.
    """
    x_next, x_prev = _as_pair(x_next, x_prev)
    # x_next - x_prev may overflow; _relative_error then rescales.
    with _ONE_BLAS_THREAD, np.errstate(over="ignore"):
        return _relative_error(x_next, x_prev, _squared_norm(x_next - x_prev),
                               _squared_norm(x_prev))


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
    """Holds NumPy's BLAS at one thread while a solve or relative_error runs.

    A solve's only BLAS calls are the SVT products, the dense row
    products and the squared norms. At these sizes threads make them no
    faster, and after a threaded call OpenBLAS's workers keep spinning on
    the other cores, which the frame blocks need. One thread also makes
    the dot products behind the relative error, the solve's series and
    the public call alike, independent of the host's BLAS thread count.

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

# NumPy's error state for a solve: a diverging one overflows, and makes
# NaN from inf - inf or inf * 0, before the loop's checks raise
# DivergenceError.
_LOOP_ERRORS = {"over": "ignore", "invalid": "ignore"}

# The full model's eps while its SVT returns exactly zero: a marker that
# the loop tells by identity (`eps is _ZERO`), in place of a zero stack.
# Nothing reads its value.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False

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

    :meth:`split` runs a kernel on one contiguous part of ``range(count)``
    per worker (none empty); the calling thread runs the first part and
    pool threads the rest. The parts for a count are cut the first time
    it is split and kept for the rest of the solve. :meth:`run` splits
    the frame axis of the stacks it is given; the SVT splits its pixel
    tiles. Every kernel writes each entry of its part from that part's
    inputs alone, and the cut does not change what a frame or a tile
    computes, so results are bit-identical for any worker count. On one
    worker there is no pool; otherwise it lives only as long as the
    ``with`` block of one solve.
    """

    def __init__(self, shape: tuple[int, int, int]):
        self._frames = shape[0]
        self._workers = _worker_count(*shape)
        self._parts = {}
        self._pool = None
        if self._workers > 1:
            # Imported here: a process that never runs a pool (most CLI
            # commands, small solves) does not load the thread-pool
            # modules, about 0.6 MB resident.
            from concurrent.futures import ThreadPoolExecutor

            # np.errstate is per thread: the workers take the solve's.
            self._pool = ThreadPoolExecutor(
                self._workers - 1, initializer=functools.partial(np.seterr, **_LOOP_ERRORS))

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
        jobs = [self._pool.submit(kernel, part) for part in rest]
        kernel(first)
        for job in jobs:
            job.result()

    def run(self, kernel, *stacks: np.ndarray, **params) -> None:
        # Stacks are cut into frame blocks; keyword parameters go to every block.
        self.split(lambda block: kernel(*(stack[block] for stack in stacks), **params),
                   self._frames)


def _grad_adjoint(p: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    # grad_adjoint on the padded dual layout (see _dual_block): p, q and
    # out are C-contiguous (T, m, n) stacks. Three passes on the flattened
    # stacks: copy the first row and subtract p shifted by n, add q, and
    # subtract q shifted by 1. A zero pad (the last row of the frame
    # before, the last column of the row before) stands in for each term
    # that falls outside its frame. The values are those of grad_adjoint;
    # a zero may differ in sign.
    cols = out.shape[-1]
    out_flat, p_flat, q_flat = out.reshape(-1), p.reshape(-1), q.reshape(-1)
    out_flat[:cols] = p_flat[:cols]
    np.subtract(p_flat[cols:], p_flat[:-cols], out=out_flat[cols:])
    out_flat += q_flat
    out_flat[1:] -= q_flat[:-1]
    return out


# Row-constant masks on frames of at most this many rows take the dense
# row operator: its product costs O(m) per entry against the 2-D DFT
# pair's O(log(m n)). Measured on one core of a 2-core x86_64 host
# (primal kernel, time of the dense product over the 2-D DFT pair):
# 8x128x128 0.74, 8x160x160 0.92, 8x192x192 1.02, 20x192x192 0.89 and
# 60x192x192 0.84 win or tie, 8x224x224 1.07, 8x256x256 1.06 and
# 8x256x64 1.34 lose.
_DENSE_ROWS = 192


def _dense_fidelity(mask: np.ndarray) -> bool:
    # Whether the primal kernel applies F^H M F as the dense row operator.
    # A mask whose every frame is constant along its columns samples whole
    # k-space rows, so F^H M F = (F_r^H diag(m_t) F_r) (x) I per frame: the
    # column transforms cancel. On frames of up to _DENSE_ROWS rows that
    # m x m matrix is applied as a dense product; every other mask takes
    # the 2-D DFT pair.
    return mask.shape[1] <= _DENSE_ROWS and bool((mask == mask[:, :, :1]).all())


def _row_operator(mask: np.ndarray, step: float) -> np.ndarray:
    # R[t] = I - step * F_r^H diag(m_t) F_r for a row-constant mask, a
    # (T, m, m) stack: the unitary DFT pair along the rows applied to the
    # identity, with column 0 of each frame's mask on the diagonal.
    rows = mask.shape[1]
    operator = np.fft.fft(np.eye(rows), axis=0, norm="ortho") * mask[:, :, :1]
    np.fft.ifft(operator, axis=-2, norm="ortho", out=operator)
    operator *= -step
    operator.reshape(len(mask), -1)[:, ::rows + 1] += 1.0
    return operator


def _primal_block(x, p, q, transport, out, mask, data, *, step, tv_step) -> None:
    # For one frame block: transport <- tv_step * grad_adjoint(y), then
    # out <- x - step * F^H M (F x - b) - transport, evaluated in that
    # order, the DFT pair run in place in out. F^H M (F x - b) is the
    # gradient of 1/2 ||A x - b||^2 for a 0/1 mask M, whether or not b
    # was masked, so the kernel reads the solve's k-space data and holds
    # no image-domain copy of F^H M b.
    _grad_adjoint(p, q, transport)
    transport *= tv_step
    _dft2(x, out=out)
    out -= data
    out *= mask
    _idft2(out, out=out)
    out *= step
    np.subtract(x, out, out=out)
    out -= transport


def _dense_primal_block(x, p, q, transport, out, operator, shift, *, tv_step) -> None:
    # _primal_block for the dense row operator: out <- R x + c - transport
    # with R from _row_operator and c = step * F^H M b, the same operator
    # as x - step * (F^H M F x - F^H M b). One product per frame, no
    # scratch.
    _grad_adjoint(p, q, transport)
    transport *= tv_step
    np.matmul(operator, x, out=out)
    out += shift
    out -= transport


def _dual_block(x_next, x, p, q, lookahead, next_sq, change_sq, x_prime=None, *,
                step) -> None:
    # For one frame block: next_sq and change_sq <- per-frame ||x_next||^2
    # and ||x_next - x||^2, then y <- proj(y + grad(step * ((x_next - x)
    # + x_next (+ x')))), evaluated in that order, the differences added
    # straight into y. Both components are padded to (T, m, n): p with a
    # zero last row, q with a zero last column. Each takes its differences
    # on the flattened block, at stride n (p) or 1 (q), and the entries
    # they write into its pad (differences across a frame or row boundary)
    # are zeroed again. Both are projected once both are updated: the
    # lookahead is dead by then, and the first half of its float64 view
    # takes the moduli. Each block decides for itself whether a projection
    # can return at once; where it does, every factor of a whole-field
    # projection would be exactly 1.
    np.subtract(x_next, x, out=lookahead)
    _frame_squared_norms(x_next, next_sq)
    _frame_squared_norms(lookahead, change_sq)
    lookahead += x_next
    if x_prime is not None:
        lookahead += x_prime
    lookahead *= step
    lookahead_flat = lookahead.reshape(-1)
    for y, stride, pad in ((p, lookahead.shape[-1], p[:, -1, :]), (q, 1, q[:, :, -1])):
        y_flat = y.reshape(-1)
        y_flat[:-stride] += lookahead_flat[:-stride]
        y_flat[:-stride] -= lookahead_flat[stride:]
        pad[...] = 0.0
    moduli = lookahead_flat.view(np.float64)[:lookahead.size].reshape(lookahead.shape)
    _shrink_to_unit_disc(p, moduli)
    _shrink_to_unit_disc(q, moduli)


def _primal_dual_solve(data, mask, config, error_split, reference, on_iteration):
    # Inputs are validated here, once; the loop then runs the trusted
    # kernels behind the public operators on complex128 stacks, writing
    # into buffers allocated once per solve.
    data, mask = _as_stack_and_mask(data, mask)
    frames, rows, cols = data.shape
    if rows < 2 or cols < 2:
        raise DimensionError(f"frames must be at least 2x2 for differences, got {data.shape}")
    if reference is not None:
        reference = _as_pair(reference, data)[0]

    denom = 1.0 + config.t1 * OPERATOR_NORM
    fidelity_step = config.t1 / denom
    tv_step = config.t1 * config.lambda1 / denom
    svt_threshold = config.t1 * config.lambda2 / denom
    eps_threshold = config.resolved_epsilon_threshold()
    dual_step = config.t2 * config.lambda1

    # adjoint_op(data, mask): the zero-filled image F^H M b, the first x.
    x = _idft2(data * mask)
    # The primal kernel's operands after x, p, q, transport and its
    # output: the dense path's row operator and step * F^H M b, or, for
    # the 2-D pair, the uint8 mask (as in forward_op and adjoint_op) and
    # the validated k-space data, so that path holds no stack of its own.
    if _dense_fidelity(mask):
        primal = _dense_primal_block
        fidelity = (_row_operator(mask, fidelity_step), x * fidelity_step)
        params = {"tv_step": tv_step}
    else:
        primal = _primal_block
        fidelity = (mask, data)
        params = {"step": fidelity_step, "tv_step": tv_step}
    if error_split:
        # x' starts at the zero-filled image, and eps is _ZERO for as long
        # as the eps SVT returns exactly zero, so the loop can test `eps is
        # _ZERO`; eps_out holds eps otherwise. The full model also keeps
        # the scaled transport tv_step * grad_adjoint(y), which its x' step
        # reads.
        x_prime, eps, eps_out = x.copy(), _ZERO, np.empty_like(x)
        transport = np.empty_like(x)
    # The dual field y = (p, q), both padded to (T, m, n) (see
    # _dual_block); final_state.y has the public shapes.
    p, q = np.zeros_like(x), np.zeros_like(x)
    # Reused every iteration: the primal point being built (x_bar, then
    # the lookahead), the next iterate (it alternates with x, whose old
    # values are dead once the dual step has run), and the per-frame
    # squared norms of x_next and x_next - x. Until the SVT writes x_next
    # into it, x_spare holds nothing live: the baseline's transport and the
    # full model's first tau term are formed there. The full model's
    # second tau term goes into transport once that has been read.
    x_bar = np.empty_like(x)
    x_spare = np.empty_like(x)
    next_sq = np.empty(frames)
    change_sq = np.empty(frames)

    track = reference is not None
    if track:
        ref_terms = _reference(reference)
        magnitude = np.empty(data.shape)
    re_series: list[float] = []
    psnr_series: list[float] = []
    rmse_series: list[float] = []
    terminated_by = "max-iters"
    started = time.perf_counter()

    # One thread budget: BLAS on one thread, and the workers of
    # _FrameBlocks run the two frame-block kernels and, in each SVT, the
    # per-frame norms and both products (on groups of pixel tiles).
    # The calling thread keeps the T x T steps of the SVTs (partial Gram
    # sum, eigh, shrink), the tau terms, the sums of the per-frame norms,
    # the relative error and PSNR/RMSE. Finiteness is checked without
    # scans of its own: _svt takes its input's extremes whenever the sum
    # of its squared norms is not finite, and x_next is scanned only when
    # its squared norm is not finite. Either raises _NonFiniteInput, which
    # ends the solve with a DivergenceError; the overflow and NaN on the
    # way there are not warned of (_LOOP_ERRORS, on the workers too).
    with _ONE_BLAS_THREAD, np.errstate(**_LOOP_ERRORS), _FrameBlocks(data.shape) as blocks:
        x_norm_sq = _squared_norm(x)
        try:
            for n in range(1, config.max_iters + 1):
                # transport = tv_step * grad_adjoint(y) and
                # x_bar = x - fidelity_step * gradient - transport
                if not error_split:
                    transport = x_spare
                blocks.run(primal, x, p, q, transport, x_bar, *fidelity, **params)
                if error_split:
                    # While eps is exactly zero its tau * eps terms are
                    # skipped: they could change only the sign of a zero.
                    if eps is _ZERO:
                        np.multiply(x_prime, config.tau, out=x_spare)
                    else:
                        np.add(x_prime, eps, out=x_spare)
                        x_spare *= config.tau
                    x_bar += x_spare
                x_next = _svt(x_bar, svt_threshold, out=x_spare, split=blocks.split)
                # x_bar is free again: it holds the next SVT inputs and then
                # the lookahead. x' and eps are rewritten in place: their old
                # values were last read in the x_bar terms above.
                dual_stacks = (x_next, x, p, q, x_bar, next_sq, change_sq)
                if error_split:
                    np.subtract(x_next, transport, out=x_bar)
                    if eps is not _ZERO:
                        np.multiply(eps, config.tau, out=transport)
                        x_bar += transport
                    x_prime = _svt(x_bar, svt_threshold, out=x_prime, split=blocks.split)
                    np.subtract(x_next, x_prime, out=x_bar)
                    eps = _svt(x_bar, eps_threshold, _ZERO, out=eps_out, split=blocks.split)
                    dual_stacks += (x_prime,)
                blocks.run(_dual_block, *dual_stacks, step=dual_step)

                # Summed in frame order. A finite stack can still have an
                # overflowing square.
                next_norm_sq = sum(next_sq.tolist())
                if not math.isfinite(next_norm_sq) and not np.isfinite(x_next).all():
                    raise _NonFiniteInput("non-finite iterate")
                re = _relative_error(x_next, x, sum(change_sq.tolist()), x_norm_sq)
                x_spare, x = x, x_next
                x_norm_sq = next_norm_sq
                re_series.append(re)

                psnr_value = rmse_value = None
                if track:
                    psnr_value, rmse_value = _psnr_rmse(*ref_terms, x, magnitude)
                    psnr_series.append(psnr_value)
                    rmse_series.append(rmse_value)
                if on_iteration is not None:
                    try:
                        on_iteration(n, re, psnr_value, rmse_value)
                    except Exception as exc:
                        raise CallbackError(
                            f"iteration callback raised at iteration {n}", iteration=n
                        ) from exc
                if re < config.tol_re:
                    terminated_by = "tolerance"
                    break
        except _NonFiniteInput:
            raise DivergenceError(f"solver state became non-finite at iteration {n}",
                                  iteration=n) from None

    if not error_split:
        # The baseline's final x' is the zero-filled image and its eps is
        # zero, as at the start of the loop; both are formed in buffers the
        # loop has done with.
        x_prime = _idft2(np.multiply(data, mask, out=x_bar), out=x_bar)
        eps = x_spare
        eps.fill(0.0)
    elif eps is _ZERO:
        # final_state.eps is a zero stack; eps_out may have served as the
        # eps SVT's scratch.
        eps = eps_out
        eps.fill(0.0)
    return SolveReport(
        reconstruction=x,
        iterations=len(re_series),
        re_series=tuple(re_series),
        psnr_series=tuple(psnr_series) if track else None,
        rmse_series=tuple(rmse_series) if track else None,
        duration_seconds=time.perf_counter() - started,
        terminated_by=terminated_by,
        final_state=SolverState(x, x_prime, eps,
                                DualField(p[:, :-1, :], q[:, :, :-1])),
    )


def rdledm_solve(data, mask, config: SolverConfig | None = None, reference=None,
                 on_iteration: IterationCallback | None = None) -> SolveReport:
    """Reconstruct with the full low-rank error decomposition.

    ``tau`` couples the main iterate to its decomposition x' + eps; with
    ``tau == 0`` the auxiliary updates can no longer influence x, so the
    whole branch is skipped and the iteration coincides exactly with
    :func:`baseline_tvnn_solve`. Passing ``reference`` records PSNR and
    RMSE per iteration; ``on_iteration`` observes ``(n, re, psnr, rmse)``
    (psnr and rmse None without a reference) and must leave all state
    alone.
    """
    config = config if config is not None else SolverConfig()
    return _primal_dual_solve(
        data, mask, config,
        error_split=config.tau > 0.0,
        reference=reference,
        on_iteration=on_iteration,
    )


def baseline_tvnn_solve(data, mask, config: SolverConfig | None = None, reference=None,
                        on_iteration: IterationCallback | None = None) -> SolveReport:
    """Reconstruct with TV + nuclear norm only (no error decomposition)."""
    config = config if config is not None else SolverConfig()
    return _primal_dual_solve(
        data, mask, config,
        error_split=False,
        reference=reference,
        on_iteration=on_iteration,
    )
