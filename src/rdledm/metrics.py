"""Reconstruction quality metrics.

PSNR and RMSE compare magnitude images, the way reconstructions are
actually displayed. Both normalize by the reference: RMSE rescales so
the reference peak magnitude is 1, and PSNR takes the reference peak
as its peak. An exact match yields the +inf sentinel for PSNR and 0
for RMSE; results files carry the sentinel through to CSV as "inf".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .sequence import as_sequence


def _magnitude_pair(x, xhat) -> tuple[np.ndarray, np.ndarray]:
    x = as_sequence(x)
    xhat = as_sequence(xhat)
    if x.shape != xhat.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    return np.abs(x), np.abs(xhat)


def _psnr(ref: np.ndarray, est: np.ndarray, peak: float) -> float:
    # Trusted kernel behind psnr: magnitude stacks of one shape and the
    # reference peak ref.max(). An overflowing mse is handled below.
    with np.errstate(over="ignore"):
        mse = float(np.mean((ref - est) ** 2))
    if mse == 0.0:
        return math.inf
    if math.isinf(mse):
        # squared error overflowed float64: the estimate is unboundedly
        # bad, so report the limiting value instead of a domain error
        return -math.inf
    if peak == 0.0:
        raise ValueError("reference is identically zero; PSNR is undefined")
    return 10.0 * math.log10(peak * peak / mse)


def psnr(x, xhat) -> float:
    """Peak signal-to-noise ratio in dB of ``xhat`` against reference ``x``.

    The peak is the reference peak magnitude. Rescaling both magnitudes
    so that peak maps to 255 (the 8-bit convention) gives the same value.
    Identical inputs give +inf.
    """
    ref, est = _magnitude_pair(x, xhat)
    return _psnr(ref, est, float(ref.max()))


def _rmse(ref: np.ndarray, est: np.ndarray, peak: float,
          frame_averaged: bool = True) -> float:
    # Trusted kernel behind rmse, with the same inputs as _psnr. An error
    # whose square overflows gives +inf, the limiting value.
    if peak > 0.0:
        ref = ref / peak
        est = est / peak
    with np.errstate(over="ignore"):
        squared = (ref - est) ** 2
        if frame_averaged:
            return float(np.mean(np.sqrt(squared.mean(axis=(1, 2)))))
        return float(np.sqrt(squared.mean()))


def rmse(x, xhat, frame_averaged: bool = True) -> float:
    """Root-mean-square error of magnitudes, reference peak scaled to 1.

    By default the RMS error is taken per frame and averaged over the
    stack; ``frame_averaged=False`` pools all entries instead, which is
    the quantity tied to PSNR by ``psnr = -20*log10(rmse)`` when the
    reference peak is 1.
    """
    ref, est = _magnitude_pair(x, xhat)
    return _rmse(ref, est, float(ref.max()), frame_averaged)


def _score(truth, recon) -> tuple[float, float]:
    # (psnr(truth, recon), rmse(truth, recon)) bit for bit, from one
    # magnitude pair.
    ref, est = _magnitude_pair(truth, recon)
    peak = float(ref.max())
    return _psnr(ref, est, peak), _rmse(ref, est, peak)


def format_float(value: float) -> str:
    """Lossless decimal rendering; infinities become "inf" and "-inf"."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"

