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

from .sequence import _as_pair


def _reference(truth: np.ndarray) -> tuple[np.ndarray, float, float]:
    # The first three arguments of _psnr_rmse for reference stack truth:
    # |truth| over its peak (as it is when the peak is 0), the peak, and
    # the scale both stacks are measured at: 1, or 0.5 when a magnitude
    # overflows, which brings every finite one (<= sqrt(2) * max float)
    # into range and changes neither metric.
    scale = 1.0
    ref = np.abs(truth)
    peak = float(ref.max())
    if math.isinf(peak):
        scale = 0.5
        ref = np.abs(truth * scale)
        peak = float(ref.max())
    if peak > 0.0:
        ref /= peak
    return ref, peak, scale


def _psnr_rmse(ref: np.ndarray, peak: float, scale: float, estimate: np.ndarray,
               out: np.ndarray | None = None) -> tuple[float, float]:
    # Trusted kernel behind every PSNR and RMSE: ref, peak and scale come
    # from _reference, estimate is a complex128 stack of the same shape,
    # out an optional float64 buffer for its magnitudes. Both metrics are
    # taken on the peak-scaled difference, so neither depends on the scale
    # of the data; squares that overflow give the limiting values.
    est = np.abs(estimate if scale == 1.0 else estimate * scale, out=out)
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
    truth, recon = _as_pair(truth, recon)
    return _psnr_rmse(*_reference(truth), recon)


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

