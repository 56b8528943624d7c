"""Linear operators and proximal maps used by the reconstruction solvers.

Everything here acts on (T, m, n) complex stacks, frame by frame, and is
a pure function. The Fourier pair is unitary, so its adjoint is its
inverse and the data-fidelity operator has unit spectral norm. The
finite-difference pair below satisfies the exact adjoint identity
``<grad(x), y> == <x, grad_adjoint(y)>`` with zero boundary handling,
which the dual update of the solver relies on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericalError
from .sequence import as_sequence, casorati, from_casorati


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


def dft2_forward(x) -> np.ndarray:
    """Unitary 2-d DFT of every frame."""
    return np.fft.fft2(as_sequence(x), axes=(-2, -1), norm="ortho")


def dft2_adjoint(k) -> np.ndarray:
    """Adjoint of :func:`dft2_forward`; equals its inverse (unitary)."""
    return np.fft.ifft2(as_sequence(k), axes=(-2, -1), norm="ortho")


def grad_forward(x) -> DualField:
    """Forward differences of each frame.

    ``p[t, i, j] = x[t, i, j] - x[t, i+1, j]`` and
    ``q[t, i, j] = x[t, i, j] - x[t, i, j+1]``; frames must be at least
    2 x 2 so both components are nonempty.
    """
    x = as_sequence(x)
    if x.shape[1] < 2 or x.shape[2] < 2:
        raise DimensionError(f"frames must be at least 2x2 for differences, got {x.shape}")
    p = x[:, :-1, :] - x[:, 1:, :]
    q = x[:, :, :-1] - x[:, :, 1:]
    return DualField(p, q)


def grad_adjoint(y: DualField) -> np.ndarray:
    """Adjoint of :func:`grad_forward`.

    Entry (i, j) receives ``p[i, j] + q[i, j] - p[i-1, j] - q[i, j-1]``
    with out-of-range terms read as zero.
    """
    p, q = _validate_dual(y)
    frames, rows_minus, cols = p.shape
    out = np.zeros((frames, rows_minus + 1, cols), dtype=np.complex128)
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
    try:
        values = np.linalg.svd(casorati(x), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed while computing the nuclear norm") from exc
    return float(values.sum())


def svt(x, threshold: float) -> np.ndarray:
    """Singular value thresholding of the Casorati matrix.

    Soft-thresholds every singular value by ``threshold`` and rebuilds
    the stack; this is the proximal map of ``threshold * nuclear_norm``.
    A threshold of +inf yields the zero stack.
    """
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    x = as_sequence(x)
    _, rows, cols = x.shape
    try:
        u, s, vh = np.linalg.svd(casorati(x), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed during singular value thresholding") from exc
    shrunk = np.maximum(s - threshold, 0.0)
    return from_casorati((u * shrunk) @ vh, rows, cols)


def project_linf_ball(y: DualField) -> DualField:
    """Project every entry of the dual field onto the unit disc.

    Entries with magnitude at most 1 pass through unchanged; larger
    ones are rescaled to magnitude 1, preserving the phase.
    """
    p, q = _validate_dual(y)
    return DualField(
        p / np.maximum(1.0, np.abs(p)),
        q / np.maximum(1.0, np.abs(q)),
    )
