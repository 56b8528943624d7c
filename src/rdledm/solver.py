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
    _idft2,
    _NonFiniteInput,
    _shrink_to_unit_disc,
    _svt,
)
from .sampling import _as_stack_and_mask
from .sequence import _as_pair, _divided, _largest_part

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
    Weights, step sizes and ``tol_re`` must be finite (only
    ``epsilon_threshold`` may be +inf) and ``max_iters`` an integer, so
    the solve loop never sees a NaN step or a fractional count.
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
        for name in ("lambda1", "lambda2", "tau", "t1", "t2", "tol_re"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _frame_squared_norms(x: np.ndarray, out: np.ndarray) -> None:
    # out[t] <- ||x[t]||^2. The contiguous copy (of strided input only)
    # lets the float64 view exist. An overflow to +inf is handled by every
    # caller.
    parts = np.ascontiguousarray(x).reshape(len(x), -1).view(np.float64)
    with np.errstate(over="ignore"):
        np.vecdot(parts, parts, out=out)


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
    # not depend on scale, so it is then taken on copies divided by the
    # largest real or imaginary part of the two (the difference of such
    # copies cannot overflow either); a zero scale means both are zero.
    if (not (math.isfinite(change_sq) and math.isfinite(prev_sq))
            or prev_sq < sys.float_info.min):
        scale = max(_largest_part(x_next), _largest_part(x_prev))
        if scale == 0.0:
            return 0.0
        x_next = _divided(x_next, scale)
        x_prev = _divided(x_prev, scale)
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

    A solve's only BLAS calls are the SVT products and the squared norms.
    At these sizes threads make them no faster, and after a threaded call
    OpenBLAS's workers keep spinning on the other cores, which the frame
    blocks need. One thread also makes the dot products behind the
    relative error, the solve's series and the public call alike,
    independent of the host's BLAS thread count.

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

    :meth:`split` cuts ``range(count)`` into one contiguous part per
    worker (none empty); the calling thread runs the first part and pool
    threads the rest. :meth:`run` splits the frame axis of the stacks it
    is given; the SVT splits its pixel tiles. Every kernel writes each
    entry of its part from that part's inputs alone, and the cut does not
    change what a frame or a tile computes, so results are bit-identical
    for any worker count. On one worker there is no pool; otherwise it
    lives only as long as the ``with`` block of one solve.
    """

    def __init__(self, shape: tuple[int, int, int]):
        self._frames = shape[0]
        self._workers = _worker_count(*shape)
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

    def split(self, kernel, count: int) -> None:
        edges = [count * w // self._workers for w in range(self._workers + 1)]
        first, *rest = [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
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


def _fft_axes(mask: np.ndarray) -> tuple[int, ...]:
    # The axes of the DFT pair in _primal_block. A mask whose every frame
    # is constant along its columns samples whole k-space rows, so
    # F^H M F = (F_r^H diag(m) F_r) (x) I: the column transforms cancel
    # and one transform pair along the row axis gives the same operator.
    # Every other mask takes the 2-D pair.
    return (-2,) if (mask == mask[:, :, :1]).all() else (-2, -1)


def _primal_block(x, sampled, aliased, p, q, transport, k, out, *,
                  step, tv_step, axes) -> None:
    # For one frame block: transport <- tv_step * grad_adjoint(y), then
    # out <- x - step * (F^H M F x - F^H M b) - transport, evaluated in
    # that order, with k as scratch and the DFT pair on the given axes
    # (see _fft_axes). aliased is F^H M b, the zero-filled image, and
    # F^H M F x - F^H M b is the gradient of 1/2 ||A x - b||^2 for a 0/1
    # mask M, whether or not b was masked.
    _grad_adjoint(p, q, transport)
    transport *= tv_step
    np.fft.fftn(x, axes=axes, norm="ortho", out=k)
    k *= sampled
    np.fft.ifftn(k, axes=axes, norm="ortho", out=out)
    out -= aliased
    out *= step
    np.subtract(x, out, out=out)
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
    # are zeroed again before the projection. Each block decides for
    # itself whether a projection can return at once; where it does, every
    # factor of a whole-field projection would be exactly 1.
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
        _shrink_to_unit_disc(y)


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

    # complex128 like the products with the uint8 mask it replaces, so
    # every masked value is bit-identical to forward_op/adjoint_op.
    sampled = mask.astype(np.complex128)
    init = _idft2(data * sampled)
    # F^H M b for the primal kernel: a copy, since init becomes the loop's
    # spare buffer after the first iteration.
    aliased = init.copy()
    fft_axes = _fft_axes(mask)
    # eps for as long as the eps SVT returns its exact zero stack. Never
    # written to, so the loop can test `eps is zero`.
    zero = np.zeros_like(init)
    x, x_prime, eps = init, init.copy(), zero
    # The dual field y = (p, q), both padded to (T, m, n) (see
    # _dual_block); final_state.y has the public shapes.
    p = np.zeros_like(init)
    q = np.zeros_like(init)
    # Reused every iteration: scratch (k-space inside the FFT pair, then
    # any temporary), the primal point being built (x_bar, then the
    # lookahead), the scaled transport tv_step * grad_adjoint(y), the
    # next iterate (it alternates with x, whose old values are dead once
    # the dual step has run), eps while it is not the zero stack, and the
    # per-frame squared norms of x_next and x_next - x.
    scratch = np.empty_like(init)
    x_bar = np.empty_like(init)
    transport = np.empty_like(init)
    x_spare = np.empty_like(init)
    eps_out = np.empty_like(init) if error_split else None
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
    # per-frame extremes and both products (on groups of pixel tiles).
    # The calling thread keeps the T x T steps of the SVTs (partial Gram
    # sum, eigh, shrink), the tau terms, the sums of the per-frame norms,
    # the relative error and PSNR/RMSE. Finiteness is checked without
    # scans of its own: _svt tests its input through the extremes it
    # takes anyway, and x_next is scanned only when its squared norm is
    # not finite. Either raises _NonFiniteInput, which ends the solve
    # with a DivergenceError; the overflow and NaN on the way there are
    # not warned of (_LOOP_ERRORS, on the workers too).
    with _ONE_BLAS_THREAD, np.errstate(**_LOOP_ERRORS), _FrameBlocks(data.shape) as blocks:
        x_norm_sq = _squared_norm(x)
        try:
            for n in range(1, config.max_iters + 1):
                # transport = tv_step * grad_adjoint(y) and
                # x_bar = x - fidelity_step * gradient - transport
                blocks.run(_primal_block, x, sampled, aliased, p, q,
                           transport, scratch, x_bar,
                           step=fidelity_step, tv_step=tv_step, axes=fft_axes)
                if error_split:
                    # While eps is the exact zero stack its tau * eps terms are
                    # skipped: they could change only the sign of a zero.
                    if eps is zero:
                        np.multiply(x_prime, config.tau, out=scratch)
                    else:
                        np.add(x_prime, eps, out=scratch)
                        scratch *= config.tau
                    x_bar += scratch
                x_next = _svt(x_bar, svt_threshold, out=x_spare, split=blocks.split)
                # x_bar is free again: it holds the next SVT inputs and then
                # the lookahead. x' and eps are rewritten in place: their old
                # values were last read in the x_bar terms above.
                dual_stacks = (x_next, x, p, q, x_bar, next_sq, change_sq)
                if error_split:
                    np.subtract(x_next, transport, out=x_bar)
                    if eps is not zero:
                        np.multiply(eps, config.tau, out=scratch)
                        x_bar += scratch
                    x_prime = _svt(x_bar, svt_threshold, out=x_prime, split=blocks.split)
                    np.subtract(x_next, x_prime, out=x_bar)
                    eps = _svt(x_bar, eps_threshold, zero, out=eps_out, split=blocks.split)
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
