"""Reconstruction quality metrics and series plumbing for experiments.

PSNR and RMSE compare magnitude images, the way reconstructions are
actually displayed. Both normalize by the reference: RMSE rescales so
the reference peak magnitude is 1, and PSNR takes the reference peak
as its peak. An exact match yields the +inf sentinel for PSNR and 0
for RMSE; series carry the sentinel through to CSV as "inf".
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

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
    # reference peak ref.max().
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
    # Trusted kernel behind rmse, with the same inputs as _psnr.
    if peak > 0.0:
        ref = ref / peak
        est = est / peak
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


def _valid_value(value: float) -> bool:
    return math.isfinite(value) or value == math.inf


@dataclass(frozen=True)
class MetricSeries:
    """Labeled (index, value) pairs with strictly increasing indices."""

    label: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "points",
            tuple((float(i), float(v)) for i, v in self.points),
        )
        indices = [i for i, _ in self.points]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError(f"series {self.label!r}: indices must strictly increase")
        if not all(_valid_value(v) for _, v in self.points):
            raise ValueError(f"series {self.label!r}: values must be finite or +inf")

    def indices(self) -> tuple[float, ...]:
        return tuple(i for i, _ in self.points)

    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


def psnr_rmse_sweep(results) -> tuple[MetricSeries, MetricSeries]:
    """Evaluate (ratio, reconstruction, reference) triples in given order.

    Ratios must strictly increase; returns one PSNR series and one RMSE
    series over the same ratio indices, without reordering anything.
    """
    results = list(results)
    if not results:
        raise ValueError("sweep results must be nonempty")
    ratios = [float(r) for r, _, _ in results]
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ValueError("sweep ratios must strictly increase")
    psnr_points = []
    rmse_points = []
    for ratio, reconstruction, reference in results:
        psnr_points.append((ratio, psnr(reference, reconstruction)))
        rmse_points.append((ratio, rmse(reference, reconstruction)))
    return MetricSeries("psnr", tuple(psnr_points)), MetricSeries("rmse", tuple(rmse_points))


def format_float(value: float) -> str:
    """Lossless decimal rendering; the +inf sentinel becomes "inf"."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"


def series_to_csv(*series: MetricSeries) -> str:
    """Merge series into CSV text over the union of their indices.

    One column per series in the given order, first column "index",
    missing values left as empty cells, floats rendered with 17
    significant digits so parsing the text recovers them exactly.
    """
    if not series:
        raise ValueError("need at least one series")
    by_label = [dict(s.points) for s in series]
    indices = sorted(set().union(*(d.keys() for d in by_label)))
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["index", *(s.label for s in series)])
    for index in indices:
        row = [format_float(index)]
        for mapping in by_label:
            row.append(format_float(mapping[index]) if index in mapping else "")
        writer.writerow(row)
    return buffer.getvalue()
