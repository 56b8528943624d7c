"""Reconstruction quality metrics.

PSNR and RMSE compare magnitude images, the way reconstructions are
actually displayed. Both rescale so the reference peak magnitude is 1,
and both come from one kernel. An exact match yields the +inf sentinel
for PSNR and 0 for RMSE; results files carry the sentinel through to
CSV as "inf".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .sequence import as_sequence


def _reference(truth: np.ndarray) -> tuple[np.ndarray, float]:
    # The first two arguments of _psnr_rmse for reference stack truth:
    # |truth| divided by its peak (left as it is when the peak is 0), and
    # the peak.
    ref = np.abs(truth)
    peak = float(ref.max())
    if peak > 0.0:
        ref /= peak
    return ref, peak


def _psnr_rmse(ref: np.ndarray, peak: float, est: np.ndarray) -> tuple[float, float]:
    # Trusted kernel behind every PSNR and RMSE: ref and peak come from
    # _reference, est is a float64 buffer of the estimate's magnitudes of
    # the same shape, which it overwrites. Both metrics are taken on the
    # peak-scaled difference, so neither depends on the scale of the data;
    # squares that overflow give the limiting values (-inf, inf).
    with np.errstate(over="ignore"):
        if peak > 0.0:
            est /= peak
        np.subtract(ref, est, out=est)
        np.square(est, out=est)
        per_frame = est.mean(axis=(1, 2))
        mse = float(per_frame.mean())
    rmse_value = float(np.mean(np.sqrt(per_frame)))
    if mse == 0.0:
        return math.inf, rmse_value
    if math.isinf(mse):
        return -math.inf, rmse_value
    if peak == 0.0:
        raise ValueError("reference is identically zero; PSNR and RMSE are undefined")
    return -10.0 * math.log10(mse), rmse_value


def _score(truth, recon) -> tuple[float, float]:
    # (psnr(truth, recon), rmse(truth, recon)), validated here once.
    truth = as_sequence(truth)
    recon = as_sequence(recon)
    if truth.shape != recon.shape:
        raise DimensionError(f"shape mismatch: {truth.shape} vs {recon.shape}")
    return _psnr_rmse(*_reference(truth), np.abs(recon))


def psnr(x, xhat) -> float:
    """Peak signal-to-noise ratio in dB of ``xhat`` against reference ``x``.

    The peak is the reference peak magnitude, and the error is taken on
    magnitudes scaled by it, so rescaling both inputs leaves the value
    unchanged (mapping the peak to 255, the 8-bit convention, included).
    Identical inputs give +inf.
    """
    return _score(x, xhat)[0]


def rmse(x, xhat) -> float:
    """Root-mean-square error of magnitudes, reference peak scaled to 1.

    The RMS error is taken per frame and averaged over the stack.
    Identical inputs give 0.
    """
    return _score(x, xhat)[1]


def format_float(value: float) -> str:
    """Lossless decimal rendering; infinities become "inf" and "-inf"."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"

