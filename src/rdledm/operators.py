"""Linear operators and proximal maps used by the reconstruction solvers.

Everything here acts on (T, m, n) complex stacks, frame by frame. The
public functions are pure and leave their inputs unchanged; the private
kernels behind them may write into ``out`` buffers or shrink an array
in place, so the solve loop reuses its memory. The Fourier pair
is unitary, so its adjoint is its inverse and the data-fidelity
operator has unit spectral norm. The finite-difference pair below
satisfies the exact adjoint identity ``<grad(x), y> == <x,
grad_adjoint(y)>`` with zero boundary handling, which the dual update
of the solver relies on.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from ._threads import _ONE_BLAS_THREAD
from .errors import DimensionError, NumericalError
from .sequence import _largest_part, _rescaled, as_sequence, casorati


class DualField(NamedTuple):
    """Per-frame forward differences along rows (p) and columns (q).

    Shapes: ``p`` is (T, m-1, n) and ``q`` is (T, m, n-1). This is the
    natural codomain of :func:`grad_forward` and the domain of the dual
    variable in the primal-dual iterations.
    """

    p: np.ndarray
    q: np.ndarray


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


def grad_adjoint(y: DualField) -> np.ndarray:
    """Adjoint of :func:`grad_forward`.

    Entry (i, j) receives ``p[i, j] + q[i, j] - p[i-1, j] - q[i, j-1]``
    with out-of-range terms read as zero.
    """
    p, q = _validate_dual(y)
    out = np.zeros((p.shape[0], p.shape[1] + 1, p.shape[2]), dtype=np.complex128)
    out[:, :-1, :] += p
    out[:, 1:, :] -= p
    out[:, :, :-1] += q
    out[:, :, 1:] -= q
    return out


def tv_seminorm(x) -> float:
    """Anisotropic total variation: l1 norm of both difference fields."""
    p, q = grad_forward(x)
    return float(np.abs(p).sum() + np.abs(q).sum())


def nuclear_norm(x) -> float:
    """Sum of singular values of the Casorati matrix of ``x``."""
    matrix = casorati(x)
    try:
        with _ONE_BLAS_THREAD:
            values = np.linalg.svd(matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed while computing the nuclear norm") from exc
    return float(values.sum())


class _NonFiniteInput(Exception):
    """Raised when an SVT input or a solve's iterate holds a NaN or an infinity."""


def _frame_squared_norms(x: np.ndarray, out: np.ndarray) -> None:
    # out[t] <- ||x[t]||^2. The contiguous copy (of strided input only)
    # lets the float64 view exist. An overflow to +inf is handled by every
    # caller.
    parts = np.ascontiguousarray(x).reshape(len(x), -1).view(np.float64)
    with np.errstate(over="ignore"):
        np.vecdot(parts, parts, out=out)


# Pixel columns of the (T, m*n) Casorati view per partial Gram matrix: a
# 64 x 64 frame is one tile. The partition depends on the frame size
# alone, not on the worker count, so neither do the partial sums.
_GRAM_TILE = 4096


def _gram_tiles(pixels: int) -> int:
    return -(-pixels // _GRAM_TILE)


# ||C||_F^2 range in which the Gram matrix is formed from C itself;
# outside it C is rescaled first. Below pixels * _GRAM_FLOOR, products
# that underflow could add more than one unit of round-off to a Gram
# entry; above _GRAM_CEILING a partial sum, bounded by ||C||_F^2 up to
# round-off, could overflow.
_GRAM_FLOOR = 2.0 * sys.float_info.min
_GRAM_CEILING = sys.float_info.max / 4.0


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
    # is `zero` if given (a marker, such as a read-only 0-d zero, by whose
    # identity the caller tells that result), else zeros written to `out`
    # or to a new stack. Otherwise the result is written to `out`
    # (a C-contiguous stack that does not overlap x) or to a new stack.
    # Once a Gram is formed, `out` has served as its scratch, also when
    # `zero` is returned.
    # `split(kernel, count)` runs kernel(part) on contiguous parts that
    # cover range(count), possibly in parallel; it carries the per-frame
    # norms and both O(m*n*T^2) products, over groups of whole tiles. The
    # T x T steps (sum of the partial Grams, eigh, shrink) stay on the
    # calling thread.
    frames = x.shape[0]
    flat = np.ascontiguousarray(x).reshape(frames, -1)
    pixels = flat.shape[1]
    norms = np.empty(frames)

    def squared_norms(block: slice) -> None:
        _frame_squared_norms(flat[block], norms[block])

    split(squared_norms, frames)
    # Summed in frame order. A NaN or an infinite part makes the sum NaN
    # or +inf, and so does a finite stack whose squares overflow; either
    # fails the range test.
    total = sum(norms.tolist())
    if not pixels * _GRAM_FLOOR <= total <= _GRAM_CEILING:
        # The largest part propagates NaN and is inf on an infinite part,
        # so this is the finiteness check, before any other arithmetic.
        largest = _largest_part(flat)
        if not math.isfinite(largest):
            raise _NonFiniteInput("singular value thresholding of a non-finite stack")
        # Every entry has modulus <= sqrt(2) * largest, so ||C||_F <=
        # sqrt(2 * entries) * largest. This also covers the zero stack, and
        # bounds the scaled threshold below.
        if math.sqrt(2.0 * flat.size) * largest <= threshold:
            return _svt_zero(x, zero, out)
        # The SVT commutes with scaling by 2**-e, which brings the squares
        # into range: one more call, then the result is scaled back.
        scaled, e = _rescaled(flat, largest)
        result = _svt(scaled.reshape(x.shape), math.ldexp(threshold, -e), zero,
                      out=out, split=split)
        if result is not zero:
            parts = result.reshape(-1).view(np.float64)
            np.ldexp(parts, e, out=parts)
        return result
    # No singular value exceeds ||C||_F. This also covers threshold +inf.
    if math.sqrt(total) <= threshold:
        return _svt_zero(x, zero, out)

    tiles = _gram_tiles(pixels)
    partial = np.empty((tiles, frames, frames), dtype=np.complex128)
    if out is None:
        out = np.empty_like(x)
    out_flat = out.reshape(frames, -1)

    def gram(group: slice) -> None:
        # One partial Gram per tile, from the tile and its conjugate, formed
        # while the tile is in cache. The conjugate goes to the tile's
        # columns of `out`, which the rebuild overwrites.
        for tile in range(group.start, group.stop):
            columns = slice(tile * _GRAM_TILE, min((tile + 1) * _GRAM_TILE, pixels))
            conjugate = out_flat[:, columns]
            np.conjugate(flat[:, columns], out=conjugate)
            np.matmul(conjugate, flat[:, columns].T, out=partial[tile])

    split(gram, tiles)
    # Added in tile order, so the sum does not depend on the grouping.
    gram_matrix = partial.sum(axis=0)
    try:
        eigenvalues, vectors = np.linalg.eigh(gram_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed during singular value thresholding") from exc
    sigma = np.sqrt(np.maximum(eigenvalues, 0.0))
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
    x = as_sequence(x)
    with _ONE_BLAS_THREAD:
        return _svt(x, threshold)


def _shrink_to_unit_disc(z: np.ndarray, moduli: np.ndarray | None = None) -> None:
    # z <- z / max(1, |z|), in place. NumPy divides a complex number by a
    # real one (read as r + 0j) by multiplying both parts with 1/r, so real
    # multiplies of the real and the imaginary parts give the same values.
    # `moduli`, if given, is a float64 array of z's shape that does not
    # overlap z; it takes |z| and the factors in place of a new array.
    scale = np.abs(z, out=moduli)
    # With no entry outside the disc every factor is exactly 1, which
    # changes no bit. A NaN makes the max NaN and takes the full path.
    if scale.max() <= 1.0:
        return
    np.maximum(scale, 1.0, out=scale)
    np.divide(1.0, scale, out=scale)
    parts = z.view(np.float64)
    parts[..., 0::2] *= scale
    parts[..., 1::2] *= scale


def project_linf_ball(y: DualField) -> DualField:
    """Project every entry of the dual field onto the unit disc.

    Entries with magnitude at most 1 pass through unchanged; larger
    ones are rescaled to magnitude 1, preserving the phase.
    """
    p, q = (component.copy() for component in _validate_dual(y))
    _shrink_to_unit_disc(p)
    _shrink_to_unit_disc(q)
    return DualField(p, q)
