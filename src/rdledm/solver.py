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

import math
import numbers
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CallbackError, DimensionError, DivergenceError
from .metrics import _psnr, _rmse
from .operators import (
    DualField,
    _dft2,
    _grad_adjoint,
    _grad_forward,
    _idft2,
    _project_linf_ball,
    _svt,
)
from .sampling import as_mask
from .sequence import as_sequence

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
    record_metrics: bool = True

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
    """All mutable state of one solve: primal stacks, dual field, counter."""

    x: np.ndarray
    x_prime: np.ndarray
    eps: np.ndarray
    y: DualField
    iteration: int = 0


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
    # ravel is contiguous, so the float64 view exists for strided input.
    parts = x.ravel().view(np.float64)
    return float(parts @ parts)


def _relative_error(change_sq: float, prev_sq: float) -> float:
    # Both arguments are squared norms: ||x_next - x_prev||^2, ||x_prev||^2.
    if prev_sq == 0.0:
        return 0.0 if change_sq == 0.0 else math.inf
    return change_sq / prev_sq


def relative_error(x_next, x_prev) -> float:
    """Squared-norm change ratio ||x_next - x_prev||^2 / ||x_prev||^2.

    Both zero gives 0 (already converged at zero); a nonzero step away
    from an exactly zero iterate gives the +inf sentinel.
    """
    x_next = as_sequence(x_next)
    x_prev = as_sequence(x_prev)
    if x_next.shape != x_prev.shape:
        raise DimensionError(f"shape mismatch: {x_next.shape} vs {x_prev.shape}")
    return _relative_error(_squared_norm(x_next - x_prev), _squared_norm(x_prev))


def _finite(stack: np.ndarray, iteration: int) -> np.ndarray:
    # Blow-ups are caught before they reach an SVT, whose kernels would
    # otherwise fail with an unhelpful error on non-finite input.
    if not np.isfinite(stack).all():
        raise DivergenceError(
            f"solver state became non-finite at iteration {iteration}",
            iteration=iteration,
        )
    return stack


def _worker_count(frames: int) -> int:
    # One worker per core this process may run on (every core where the
    # platform cannot tell), but never more workers than frames.
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, frames)


class _FrameBlocks:
    """Runs a frame-wise kernel on contiguous frame blocks in parallel.

    The stacks passed to :meth:`run` are cut along the frame axis into
    one block per worker; the calling thread computes the first block
    and pool threads the rest. Each frame's result depends on that frame
    alone, so it is bit-identical for any split. The pool lives only as
    long as the ``with`` block of one solve.
    """

    def __init__(self, frames: int):
        # Imported here: a process that never solves (most CLI commands)
        # does not load the thread-pool modules, about 0.6 MB resident.
        from concurrent.futures import ThreadPoolExecutor

        workers = _worker_count(frames)
        edges = [frames * w // workers for w in range(workers + 1)]
        self._blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        self._pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None

    def __enter__(self) -> "_FrameBlocks":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def run(self, kernel, *stacks: np.ndarray) -> None:
        first, *rest = self._blocks
        jobs = [
            self._pool.submit(kernel, *(stack[block] for stack in stacks))
            for block in rest
        ]
        kernel(*(stack[first] for stack in stacks))
        for job in jobs:
            job.result()


def _fidelity_gradient(x, sampled, masked_data, k, out) -> None:
    # out <- F^H (M F x - M b) for one frame block, with k as scratch.
    # For a 0/1 mask M this equals F^H ((M F x - b) M), the gradient of
    # 1/2 ||A x - b||^2, whether or not b was masked.
    _dft2(x, out=k)
    k *= sampled
    k -= masked_data
    _idft2(k, out=out)


def _primal_dual_solve(data, mask, config, error_split, reference, on_iteration):
    # Inputs are validated here, once; the loop then runs the trusted
    # kernels behind the public operators on complex128 stacks, writing
    # into buffers allocated once per solve.
    data = as_sequence(data)
    mask = as_mask(mask)
    if data.shape != mask.shape:
        raise DimensionError(f"data shape {data.shape} != mask shape {mask.shape}")
    frames, rows, cols = data.shape
    if rows < 2 or cols < 2:
        raise DimensionError(f"frames must be at least 2x2 for differences, got {data.shape}")
    if reference is not None:
        reference = as_sequence(reference)
        if reference.shape != data.shape:
            raise DimensionError(
                f"reference shape {reference.shape} != data shape {data.shape}"
            )

    denom = 1.0 + config.t1 * OPERATOR_NORM
    fidelity_step = config.t1 / denom
    tv_step = config.t1 * config.lambda1 / denom
    svt_threshold = config.t1 * config.lambda2 / denom
    eps_threshold = config.resolved_epsilon_threshold()
    dual_step = config.t2 * config.lambda1

    # complex128 like the products with the uint8 mask it replaces, so
    # every masked value is bit-identical to forward_op/adjoint_op.
    sampled = mask.astype(np.complex128)
    masked_data = data * sampled
    init = _idft2(masked_data)
    state = SolverState(
        x=init,
        x_prime=init.copy(),
        eps=np.zeros_like(init),
        y=DualField.zeros(frames, rows, cols),
    )
    # Reused every iteration: scratch (k-space inside the FFT pair, then
    # any temporary), the primal point being built (x_bar, then the
    # lookahead), the scaled transport tv_step * grad_adjoint(y) and the
    # dual ascent.
    scratch = np.empty_like(init)
    x_bar = np.empty_like(init)
    transport = np.empty_like(init)
    ascent = DualField.zeros(frames, rows, cols)
    x_norm_sq = _squared_norm(state.x)

    track = reference is not None and config.record_metrics
    if track:
        ref_magnitude = np.abs(reference)
        ref_peak = float(ref_magnitude.max())
    re_series: list[float] = []
    psnr_series: list[float] = []
    rmse_series: list[float] = []
    terminated_by = "max-iters"
    started = time.perf_counter()

    with _FrameBlocks(frames) as blocks:
        for n in range(1, config.max_iters + 1):
            _grad_adjoint(state.y, out=transport)
            transport *= tv_step
            # x_bar = x - fidelity_step * gradient - tv_step * transport,
            # evaluated in that order.
            blocks.run(_fidelity_gradient, state.x, sampled, masked_data, scratch, x_bar)
            x_bar *= fidelity_step
            np.subtract(state.x, x_bar, out=x_bar)
            x_bar -= transport
            if error_split:
                np.add(state.x_prime, state.eps, out=scratch)
                scratch *= config.tau
                x_bar += scratch
            x_next = _svt(_finite(x_bar, n), svt_threshold)
            # x_bar is free again: it holds the next SVT inputs and then
            # the lookahead 2 x_next (+ x') - x.
            if error_split:
                np.subtract(x_next, transport, out=x_bar)
                np.multiply(state.eps, config.tau, out=scratch)
                x_bar += scratch
                state.x_prime = _svt(_finite(x_bar, n), svt_threshold)
                np.subtract(x_next, state.x_prime, out=x_bar)
                state.eps = _svt(_finite(x_bar, n), eps_threshold)
                np.multiply(x_next, 2.0, out=x_bar)
                x_bar += state.x_prime
            else:
                np.multiply(x_next, 2.0, out=x_bar)
            x_bar -= state.x
            _grad_forward(x_bar, out=ascent)
            for y_part, ascent_part in zip(state.y, ascent):
                ascent_part *= dual_step
                y_part += ascent_part
            _project_linf_ball(state.y)

            _finite(x_next, n)
            np.subtract(x_next, state.x, out=scratch)
            re = _relative_error(_squared_norm(scratch), x_norm_sq)
            state.x = x_next
            x_norm_sq = _squared_norm(x_next)
            state.iteration = n
            re_series.append(re)

            psnr_value = rmse_value = None
            if track:
                magnitude = np.abs(state.x)
                psnr_value = _psnr(ref_magnitude, magnitude, ref_peak)
                rmse_value = _rmse(ref_magnitude, magnitude, ref_peak)
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

    return SolveReport(
        reconstruction=state.x,
        iterations=len(re_series),
        re_series=tuple(re_series),
        psnr_series=tuple(psnr_series) if track else None,
        rmse_series=tuple(rmse_series) if track else None,
        duration_seconds=time.perf_counter() - started,
        terminated_by=terminated_by,
        final_state=state,
    )


def rdledm_solve(data, mask, config: SolverConfig | None = None, reference=None,
                 on_iteration: IterationCallback | None = None) -> SolveReport:
    """Reconstruct with the full low-rank error decomposition.

    ``tau`` couples the main iterate to its decomposition x' + eps; with
    ``tau == 0`` the auxiliary updates can no longer influence x, so the
    whole branch is skipped and the iteration coincides exactly with
    :func:`baseline_tvnn_solve`. Passing ``reference`` records PSNR and
    RMSE per iteration (when ``config.record_metrics``); ``on_iteration``
    observes ``(n, re, psnr, rmse)`` and must leave all state alone.
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
