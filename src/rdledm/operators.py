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


def _grad_forward(x: np.ndarray, out: DualField | None = None) -> DualField:
    if out is None:
        out = DualField.zeros(*x.shape)
    np.subtract(x[:, :-1, :], x[:, 1:, :], out=out.p)
    np.subtract(x[:, :, :-1], x[:, :, 1:], out=out.q)
    return out


def grad_forward(x) -> DualField:
    """Forward differences of each frame.

    ``p[t, i, j] = x[t, i, j] - x[t, i+1, j]`` and
    ``q[t, i, j] = x[t, i, j] - x[t, i, j+1]``; frames must be at least
    2 x 2 so both components are nonempty.
    """
    x = as_sequence(x)
    if x.shape[1] < 2 or x.shape[2] < 2:
        raise DimensionError(f"frames must be at least 2x2 for differences, got {x.shape}")
    return _grad_forward(x)


def _grad_adjoint(y: DualField, out: np.ndarray | None = None) -> np.ndarray:
    p, q = y
    frames, rows_minus, cols = p.shape
    if out is None:
        out = np.empty((frames, rows_minus + 1, cols), dtype=np.complex128)
    out.fill(0.0)
    out[:, :-1, :] += p
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


def _svt(x: np.ndarray, threshold: float) -> np.ndarray:
    # Trusted kernel behind svt: x is a finite complex128 (T, m, n) stack
    # and threshold >= 0. Row t of `flat` is frame t, so `flat` is the
    # Casorati matrix C transposed.
    flat = np.ascontiguousarray(x).reshape(x.shape[0], -1)
    # C is divided by its largest real or imaginary part, so that neither
    # ||C||_F nor the Gram matrix C^H C overflows or underflows for any
    # finite input (squaring raw entries above ~1e154 overflows). The
    # division runs on the float64 view: the same values as a complex
    # division by a real scale, several times faster.
    parts = flat.view(np.float64)
    scale = max(float(parts.max()), -float(parts.min()))
    scaled = parts / scale if scale > 0.0 else parts
    # No singular value can exceed ||C||_F: the result is exactly zero.
    if scale * np.linalg.norm(scaled) <= threshold:
        return np.zeros_like(x)
    scaled = scaled.view(np.complex128)
    try:
        eigenvalues, vectors = np.linalg.eigh(scaled.conj() @ scaled.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed during singular value thresholding") from exc
    sigma = scale * np.sqrt(np.maximum(eigenvalues, 0.0))
    keep = sigma > threshold
    factor = np.zeros_like(sigma)
    factor[keep] = 1.0 - threshold / sigma[keep]
    # C V diag(factor) V^H, written for the transposed layout.
    shrink = (vectors * factor) @ vectors.conj().T
    return (shrink.T @ flat).reshape(x.shape)


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
    # real one (read as r + 0j) by multiplying both parts with 1/r, so the
    # real multiply on the float64 view gives the same values.
    scale = np.abs(z)
    np.maximum(scale, 1.0, out=scale)
    np.divide(1.0, scale, out=scale)
    parts = z.view(np.float64).reshape(*z.shape, 2)
    parts *= scale[..., np.newaxis]


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
