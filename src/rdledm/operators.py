"""Linear operators and proximal maps used by the reconstruction solvers.

Everything here acts on (T, m, n) complex stacks, frame by frame. The
public functions are pure and leave their inputs unchanged; the private
kernels behind them may write into ``out`` buffers or update a dual
field in place, so the solve loop reuses its memory. The Fourier pair
is unitary, so its adjoint is its inverse and the data-fidelity
operator has unit spectral norm. The finite-difference pair below
satisfies the exact adjoint identity ``<grad(x), y> == <x,
grad_adjoint(y)>`` with zero boundary handling, which the dual update
of the solver relies on.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericalError
from .sequence import as_sequence, casorati


class DualField(NamedTuple):
    """Per-frame forward differences along rows (p) and columns (q).

    Shapes: ``p`` is (T, m-1, n) and ``q`` is (T, m, n-1). This is the
    natural codomain of :func:`grad_forward` and the domain of the dual
    variable in the primal-dual iterations.
    """

    p: np.ndarray
    q: np.ndarray

    @classmethod
    def zeros(cls, frames: int, rows: int, cols: int) -> "DualField":
        return cls(
            np.zeros((frames, rows - 1, cols), dtype=np.complex128),
            np.zeros((frames, rows, cols - 1), dtype=np.complex128),
        )


def _validate_dual(y: DualField) -> DualField:
    p = np.asarray(y.p, dtype=np.complex128)
    q = np.asarray(y.q, dtype=np.complex128)
    if p.ndim != 3 or q.ndim != 3:
        raise DimensionError("dual field components must be 3-d stacks")
    frames, rows_minus, cols = p.shape
    if q.shape != (frames, rows_minus + 1, cols - 1):
        raise DimensionError(
            f"inconsistent dual field shapes: p {p.shape}, q {q.shape}"
        )
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise DimensionError("dual field contains NaN or Inf entries")
    return DualField(p, q)


# fftn/ifftn rather than fft2/ifft2: both run the same per-axis
# transforms, but NumPy 2.4's ifft2 ignores ``out`` (it passes None on).
def _dft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.fft.fftn(x, axes=(-2, -1), norm="ortho", out=out)


def _idft2(k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.fft.ifftn(k, axes=(-2, -1), norm="ortho", out=out)


def dft2_forward(x) -> np.ndarray:
    """Unitary 2-d DFT of every frame."""
    return _dft2(as_sequence(x))


def dft2_adjoint(k) -> np.ndarray:
    """Adjoint of :func:`dft2_forward`; equals its inverse (unitary)."""
    return _idft2(as_sequence(k))


def grad_forward(x) -> DualField:
    """Forward differences of each frame.

    ``p[t, i, j] = x[t, i, j] - x[t, i+1, j]`` and
    ``q[t, i, j] = x[t, i, j] - x[t, i, j+1]``; frames must be at least
    2 x 2 so both components are nonempty.
    """
    x = as_sequence(x)
    if x.shape[1] < 2 or x.shape[2] < 2:
        raise DimensionError(f"frames must be at least 2x2 for differences, got {x.shape}")
    return DualField(x[:, :-1, :] - x[:, 1:, :], x[:, :, :-1] - x[:, :, 1:])


def _grad_adjoint(y: DualField, out: np.ndarray | None = None) -> np.ndarray:
    p, q = y
    frames, rows_minus, cols = p.shape
    if out is None:
        out = np.empty((frames, rows_minus + 1, cols), dtype=np.complex128)
    if q.shape[2] == cols:
        # The solve loop's layout: q padded to (T, m, n) with a zero last
        # column, and every array C-contiguous. The row terms take one
        # subtract pass; the column terms run on the flattened stack,
        # where the entry before the first of each row is a padded zero.
        # The values are those of the zero-filled accumulation below, but
        # a zero may differ in sign (-p is not 0 - p, and x + 0 is not x
        # for x = -0).
        out[:, 0, :] = p[:, 0, :]
        np.subtract(p[:, 1:, :], p[:, :-1, :], out=out[:, 1:-1, :])
        np.negative(p[:, -1, :], out=out[:, -1, :])
        out_flat, q_flat = out.reshape(-1), q.reshape(-1)
        out_flat += q_flat
        out_flat[1:] -= q_flat[:-1]
        return out
    # Only the last row is zero-filled; the others start as 0 + p, with
    # no fill pass. Every entry is evaluated in the order of a fully
    # zero-filled accumulation, so even the signs of zeros match it
    # (0 + p turns -0 into +0).
    np.add(p, 0.0, out=out[:, :-1, :])
    out[:, -1, :] = 0.0
    out[:, 1:, :] -= p
    out[:, :, :-1] += q
    out[:, :, 1:] -= q
    return out


def grad_adjoint(y: DualField) -> np.ndarray:
    """Adjoint of :func:`grad_forward`.

    Entry (i, j) receives ``p[i, j] + q[i, j] - p[i-1, j] - q[i, j-1]``
    with out-of-range terms read as zero.
    """
    return _grad_adjoint(_validate_dual(y))


def tv_seminorm(x) -> float:
    """Anisotropic total variation: l1 norm of both difference fields."""
    p, q = grad_forward(x)
    return float(np.abs(p).sum() + np.abs(q).sum())


def nuclear_norm(x) -> float:
    """Sum of singular values of the Casorati matrix of ``x``."""
    try:
        values = np.linalg.svd(casorati(x), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed while computing the nuclear norm") from exc
    return float(values.sum())


class _NonFiniteInput(Exception):
    """Raised by :func:`_svt` when its input holds a NaN or an infinity."""


# Pixel columns of the (T, m*n) Casorati view per partial Gram matrix. A
# tile of up to 60 frames and its conjugate stay in a core's cache while
# the tile is scaled, conjugated and multiplied; the partition does not
# depend on the worker count, so neither do the partial sums.
_GRAM_TILE = 1024


def _whole(kernel, count: int) -> None:
    # The serial split: kernel(part) on the single part range(count).
    kernel(slice(0, count))


def _svt_zero(x, zero, out):
    # The exactly zero result: `zero` if the caller gave one, else `out`
    # (or a new stack) filled with zeros.
    if zero is not None:
        return zero
    if out is None:
        return np.zeros_like(x)
    out.fill(0.0)
    return out


def _svt(x: np.ndarray, threshold: float, zero: np.ndarray | None = None, *,
         out: np.ndarray | None = None, split=_whole) -> np.ndarray:
    # Trusted kernel behind svt: x is a complex128 (T, m, n) stack and
    # threshold >= 0. Row t of `flat` is frame t, so `flat` is the
    # Casorati matrix C transposed. When no singular value exceeds the
    # threshold the result is exactly zero, and no rebuild is formed: it
    # is `zero` if given (a zero stack the caller keeps and never writes
    # to, so it can tell that result by identity), else zeros written to
    # `out` or to a new stack. Otherwise the result is written to `out`
    # (a C-contiguous stack that does not overlap x) or to a new stack.
    # `split(kernel, count)` runs kernel(part) on contiguous parts that
    # cover range(count), possibly in parallel; it carries the per-frame
    # extremes and both O(m*n*T^2) products, over groups of whole tiles.
    # The T x T steps (sum of the partial Grams, eigh, shrink) stay on the
    # calling thread.
    frames = x.shape[0]
    flat = np.ascontiguousarray(x).reshape(frames, -1)
    # C is divided by its largest real or imaginary part, so that neither
    # ||C||_F nor the Gram matrix C^H C overflows or underflows for any
    # finite input (squaring raw entries above ~1e154 overflows). The
    # division runs on the float64 view: the same values as a complex
    # division by a real scale, several times faster.
    parts = flat.view(np.float64)
    highs, lows = np.empty(frames), np.empty(frames)

    def extremes(block: slice) -> None:
        np.max(parts[block], axis=1, out=highs[block])
        np.min(parts[block], axis=1, out=lows[block])

    split(extremes, frames)
    scale = max(float(highs.max()), -float(lows.min()))
    # The reductions propagate NaN and reach inf on an infinite part, so
    # this is the finiteness check, before any other arithmetic.
    if not math.isfinite(scale):
        raise _NonFiniteInput("singular value thresholding of a non-finite stack")
    # Every entry has modulus <= sqrt(2) * scale, so ||C||_F <=
    # sqrt(2 * entries) * scale, and no singular value exceeds ||C||_F.
    # This also covers the zero stack (scale 0) and threshold +inf.
    if math.sqrt(2.0 * flat.size) * scale <= threshold:
        return _svt_zero(x, zero, out)

    pixels = flat.shape[1]
    tiles = -(-pixels // _GRAM_TILE)
    partial = np.empty((tiles, frames, frames), dtype=np.complex128)

    def gram(group: slice) -> None:
        # One partial Gram per tile, from the tile divided by the scale
        # and its conjugate, both formed while the tile is in cache.
        buffer = np.empty((2, frames, _GRAM_TILE), dtype=np.complex128)
        for tile in range(group.start, group.stop):
            lo = tile * _GRAM_TILE
            hi = min(lo + _GRAM_TILE, pixels)
            scaled = buffer[0, :, :hi - lo]
            conjugate = buffer[1, :, :hi - lo]
            np.divide(parts[:, 2 * lo:2 * hi], scale, out=scaled.view(np.float64))
            np.conjugate(scaled, out=conjugate)
            np.matmul(conjugate, scaled.T, out=partial[tile])

    split(gram, tiles)
    # Added in tile order, so the sum does not depend on the grouping.
    gram_matrix = partial.sum(axis=0)
    # ||C||_F from the trace: again, no singular value can exceed it.
    if scale * math.sqrt(float(gram_matrix.diagonal().real.sum())) <= threshold:
        return _svt_zero(x, zero, out)
    try:
        eigenvalues, vectors = np.linalg.eigh(gram_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed during singular value thresholding") from exc
    sigma = scale * np.sqrt(np.maximum(eigenvalues, 0.0))
    keep = sigma > threshold
    if not keep.any():
        return _svt_zero(x, zero, out)
    factor = np.zeros_like(sigma)
    factor[keep] = 1.0 - threshold / sigma[keep]
    # C V diag(factor) V^H, written for the transposed layout. Each group
    # of whole tiles is one product. BLAS forms every column of a product
    # by the same sum over frames, whichever other columns share the
    # product, so the result does not depend on the grouping (the tests
    # check this; cutting the rows of the product instead does change
    # bits).
    shrink_t = ((vectors * factor) @ vectors.conj().T).T
    if out is None:
        out = np.empty_like(x)
    out_flat = out.reshape(frames, -1)

    def rebuild(group: slice) -> None:
        columns = slice(group.start * _GRAM_TILE, min(group.stop * _GRAM_TILE, pixels))
        np.matmul(shrink_t, flat[:, columns], out=out_flat[:, columns])

    split(rebuild, tiles)
    return out


def svt(x, threshold: float) -> np.ndarray:
    """Singular value thresholding of the Casorati matrix.

    Soft-thresholds every singular value by ``threshold`` and rebuilds
    the stack; this is the proximal map of ``threshold * nuclear_norm``.
    The (m*n) x T Casorati matrix C has T <= m*n in practice, so the
    singular pairs come from the eigendecomposition of the T x T Gram
    matrix C^H C and the result is ``C V diag(max(1 - threshold/s, 0)) V^H``
    at O(m*n*T^2) cost, with no full SVD. When ``||C||_F <= threshold``
    every singular value is below the threshold and the zero stack is
    returned without any decomposition; a threshold of +inf therefore
    yields the zero stack too.
    """
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    return _svt(as_sequence(x), threshold)


def _shrink_to_unit_disc(z: np.ndarray) -> None:
    # z <- z / max(1, |z|), in place. NumPy divides a complex number by a
    # real one (read as r + 0j) by multiplying both parts with 1/r, so real
    # multiplies of the real and the imaginary parts give the same values.
    scale = np.abs(z)
    # With no entry outside the disc every factor is exactly 1, which
    # changes no bit. A NaN makes the max NaN and takes the full path.
    if scale.max() <= 1.0:
        return
    np.maximum(scale, 1.0, out=scale)
    np.divide(1.0, scale, out=scale)
    parts = z.view(np.float64)
    parts[..., 0::2] *= scale
    parts[..., 1::2] *= scale


def _project_linf_ball(y: DualField) -> DualField:
    # In place: the dual field of the solve loop is updated where it lies.
    _shrink_to_unit_disc(y.p)
    _shrink_to_unit_disc(y.q)
    return y


def project_linf_ball(y: DualField) -> DualField:
    """Project every entry of the dual field onto the unit disc.

    Entries with magnitude at most 1 pass through unchanged; larger
    ones are rescaled to magnitude 1, preserving the phase.
    """
    p, q = _validate_dual(y)
    return _project_linf_ball(DualField(p.copy(), q.copy()))
