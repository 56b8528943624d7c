"""k-space sampling: undersampling masks, simulated acquisition, adjoints.

Masks are uint8 stacks of shape (T, m, n) with entries in {0, 1}, stored
in DFT order: the k-space origin sits at index (0, 0) of every frame,
matching the layout of the unitary FFT. Patterns are drawn in centered
coordinates (origin at (m//2, n//2)) and mapped to DFT order with an
inverse FFT shift, so the always-on central regions really protect the
low frequencies.

Randomness is reproducible and frame-parallel: frame t of a mask or a
noise realization depends only on (seed, t) through a dedicated PCG64
substream, never on how many frames were drawn before it. A static mask
draws frame 0 only, and one path repeats it for every pattern; the
radial spoke search builds each spoke count it tries once.

Mask files ("MASK1") mirror the sequence format: magic b"MASK1\\n", an
ASCII "T m n" header line, then exactly T*m*n payload bytes, each 0 or 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError, FileFormatError, InfeasibleRatioError
from .operators import _dft2, _idft2
from .sequence import _read_payload, _write_payload, as_sequence

MASK_MAGIC = b"MASK1\n"

MASK_PATTERNS = ("cartesian", "radial", "random2d")

# Always-on low-frequency regions, as fractions of the grid size.
CARTESIAN_CENTER_FRACTION = 0.08
RANDOM2D_CENTER_FRACTION = 0.04
# Standard deviation of the Gaussian row-density profile, as a fraction of m.
CARTESIAN_PROFILE_SIGMA = 0.15
# Achieved radial ratios must land within this distance of the request.
RADIAL_RATIO_TOLERANCE = 0.02


def _frame_rng(seed: int, frame: int) -> np.random.Generator:
    """Independent PCG64 stream for one frame of one seeded draw."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, frame))))


def _binary(values: np.ndarray) -> bool:
    # Every entry is 0 or 1, tested before any cast (which would wrap 256 to 0).
    return bool(((values == 0) | (values == 1)).all())


def as_mask(mask) -> np.ndarray:
    """Validate ``mask`` as a uint8 (T, m, n) stack of zeros and ones."""
    arr = np.asarray(mask)
    if arr.ndim != 3:
        raise DimensionError(f"expected a (frames, rows, cols) mask, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise DimensionError(f"all mask axes must be nonempty, got shape {arr.shape}")
    if not _binary(arr):
        raise DimensionError("mask entries must be 0 or 1")
    # Every imaginary part is 0 here, so dropping it loses nothing. Object
    # stacks take the same way: the uint8 cast would call int() on each
    # entry, which fails for a Python complex zero.
    if arr.dtype.kind in "cO":
        arr = arr.astype(np.complex128, copy=False).real
    return arr.astype(np.uint8, copy=False)


def _as_stack_and_mask(x, mask) -> tuple[np.ndarray, np.ndarray]:
    # A validated sequence (or k-space stack) and mask of one shape.
    x = as_sequence(x)
    mask = as_mask(mask)
    if x.shape != mask.shape:
        raise DimensionError(f"stack shape {x.shape} != mask shape {mask.shape}")
    return x, mask


def achieved_ratio(mask) -> float:
    """Fraction of sampled k-space locations over the whole stack."""
    return float(as_mask(mask).mean())


def _centered_band(size: int, width: int) -> np.ndarray:
    start = size // 2 - width // 2
    return np.arange(start, start + width)


def _cartesian_frame(rng, rows: int, cols: int, ratio: float) -> np.ndarray:
    wanted = int(round(ratio * rows))
    band = _centered_band(rows, math.ceil(CARTESIAN_CENTER_FRACTION * rows))
    if wanted < band.size:
        raise InfeasibleRatioError(
            f"cartesian ratio {ratio} asks for {wanted} rows but the central band "
            f"alone has {band.size}"
        )
    frame = np.zeros((rows, cols), dtype=np.uint8)
    frame[band, :] = 1
    extra = wanted - band.size
    if extra > 0:
        candidates = np.setdiff1d(np.arange(rows), band)
        sigma = CARTESIAN_PROFILE_SIGMA * rows
        dist = candidates - rows // 2
        weights = np.exp(-(dist.astype(float) ** 2) / (2.0 * sigma**2))
        chosen = rng.choice(candidates, size=extra, replace=False, p=weights / weights.sum())
        frame[chosen, :] = 1
    return frame


def _boundary_extent(center: float, direction: np.ndarray, upper: float) -> np.ndarray:
    # Largest t >= 0 with 0 <= center + t*direction <= upper, per spoke.
    with np.errstate(divide="ignore"):
        return np.where(
            direction > 0,
            (upper - center) / direction,
            np.where(direction < 0, -center / direction, np.inf),
        )


def _radial_frame(rows: int, cols: int, spokes: int, offset: float) -> np.ndarray:
    angles = offset + np.pi * np.arange(spokes) / spokes
    dy, dx = np.sin(angles), np.cos(angles)
    cy, cx = rows // 2, cols // 2
    t_fwd = np.minimum(_boundary_extent(cy, dy, rows - 1), _boundary_extent(cx, dx, cols - 1))
    t_bwd = np.minimum(_boundary_extent(cy, -dy, rows - 1), _boundary_extent(cx, -dx, cols - 1))
    r0, c0 = cy - t_bwd * dy, cx - t_bwd * dx
    r1, c1 = cy + t_fwd * dy, cx + t_fwd * dx
    # Sample each full-grid chord densely enough that consecutive points
    # land on adjacent pixels; rounding then yields a connected digital
    # line from boundary to boundary through the center.
    u = np.linspace(0.0, 1.0, rows + cols + 1)
    rs = np.rint(r0[:, None] + u * (r1 - r0)[:, None]).astype(np.intp)
    cs = np.rint(c0[:, None] + u * (c1 - c0)[:, None]).astype(np.intp)
    frame = np.zeros((rows, cols), dtype=np.uint8)
    frame[rs.clip(0, rows - 1), cs.clip(0, cols - 1)] = 1
    return frame


def _radial_mask(draws: int, rows: int, cols: int, ratio: float, seed: int) -> np.ndarray:
    units = [float(_frame_rng(seed, t).random()) for t in range(draws)]

    def build(spokes: int) -> np.ndarray:
        # Offsets live in [0, pi/spokes): rotating further only permutes
        # the spoke set.
        return np.stack([_radial_frame(rows, cols, spokes, u * np.pi / spokes) for u in units])

    # Each spoke count the search tries is built once; only the chosen
    # one is built again, for the result.
    @functools.cache
    def fraction(spokes: int) -> float:
        return float(build(spokes).mean())

    cap = 4 * (rows + cols)
    lo, hi = 1, 2
    while hi < cap and fraction(hi) < ratio:
        lo, hi = hi, hi * 2
    hi = min(hi, cap)
    # Smallest spoke count reaching the requested ratio; its neighbor
    # from below may land closer, so compare both.
    while lo < hi:
        mid = (lo + hi) // 2
        if fraction(mid) < ratio:
            lo = mid + 1
        else:
            hi = mid
    best = min((s for s in (lo - 1, lo) if s >= 1), key=lambda s: abs(fraction(s) - ratio))
    error = abs(fraction(best) - ratio)
    if error > RADIAL_RATIO_TOLERANCE:
        raise InfeasibleRatioError(
            f"radial pattern cannot reach ratio {ratio} on a {rows}x{cols} grid; "
            f"closest achievable is off by {error:.4f}"
        )
    return build(best)


def _random2d_frame(rng, rows: int, cols: int, ratio: float) -> np.ndarray:
    wanted = int(round(ratio * rows * cols))
    block_r = _centered_band(rows, math.ceil(RANDOM2D_CENTER_FRACTION * rows))
    block_c = _centered_band(cols, math.ceil(RANDOM2D_CENTER_FRACTION * cols))
    block = block_r.size * block_c.size
    if wanted < block:
        raise InfeasibleRatioError(
            f"random2d ratio {ratio} asks for {wanted} samples but the central "
            f"block alone has {block}"
        )
    frame = np.zeros((rows, cols), dtype=np.uint8)
    frame[np.ix_(block_r, block_c)] = 1
    extra = wanted - block
    if extra > 0:
        candidates = np.flatnonzero(frame.ravel() == 0)
        chosen = rng.choice(candidates, size=extra, replace=False)
        frame.ravel()[chosen] = 1
    return frame


def make_mask(pattern: str, frames: int, rows: int, cols: int, ratio: float,
              seed: int, static: bool = False) -> np.ndarray:
    """Build a (frames, rows, cols) sampling mask in DFT order.

    ``pattern`` is one of ``cartesian`` (full rows: an always-on central
    band plus rows drawn with a Gaussian density away from the center),
    ``radial`` (equally spaced spokes through the center, count fitted
    to the ratio, rotated per frame), or ``random2d`` (an always-on
    central block plus uniform random samples, hitting the requested
    count exactly). ``static=True`` repeats frame 0 instead of drawing
    each frame independently. ``ratio`` is the target fraction of
    sampled locations; 1.0 yields the all-ones mask for every pattern.
    """
    if pattern not in MASK_PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}, expected one of {MASK_PATTERNS}")
    if frames < 1:
        raise DimensionError(f"frames must be positive, got {frames}")
    if rows < 2 or cols < 2:
        raise DimensionError(f"grid must be at least 2x2, got {rows}x{cols}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    if ratio == 1.0:
        return np.ones((frames, rows, cols), dtype=np.uint8)

    draws = 1 if static else frames
    if pattern == "radial":
        centered = _radial_mask(draws, rows, cols, ratio, seed)
    else:
        draw = _cartesian_frame if pattern == "cartesian" else _random2d_frame
        centered = np.stack([draw(_frame_rng(seed, t), rows, cols, ratio) for t in range(draws)])
    mask = np.fft.ifftshift(centered, axes=(1, 2))
    # A static mask repeats its one frame into an owned C-order stack.
    return mask if draws == frames else np.repeat(mask, frames, axis=0)


def measure(x, mask, sigma: float, seed: int) -> np.ndarray:
    """Simulate acquisition: DFT, complex Gaussian noise, then masking.

    Noise with standard deviation ``sigma`` per real and imaginary part
    is added at every k-space location before the unsampled ones are
    zeroed, so the retained measurements are genuinely noisy.
    ``sigma=0`` reproduces the noiseless masked spectrum exactly.
    """
    x, mask = _as_stack_and_mask(x, mask)
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    k = _dft2(x)
    if sigma > 0:
        shape = x.shape[1:]
        for t in range(x.shape[0]):
            rng = _frame_rng(seed, t)
            k[t] += sigma * rng.standard_normal(shape) + 1j * sigma * rng.standard_normal(shape)
    k *= mask
    return k


def forward_op(x, mask) -> np.ndarray:
    """Masked unitary DFT: the acquisition operator without noise."""
    x, mask = _as_stack_and_mask(x, mask)
    return _dft2(x) * mask


def adjoint_op(b, mask) -> np.ndarray:
    """Adjoint of :func:`forward_op`: re-mask, then inverse DFT."""
    b, mask = _as_stack_and_mask(b, mask)
    return _idft2(b * mask)


def zero_fill(b, mask) -> np.ndarray:
    """Zero-filling reconstruction: the adjoint applied to the data."""
    return adjoint_op(b, mask)


def write_mask(mask, path) -> None:
    """Write a mask to ``path`` in the MASK1 format."""
    mask = as_mask(mask)
    _write_payload(path, MASK_MAGIC, mask.shape, mask.tobytes())


def read_mask(path) -> np.ndarray:
    """Read a MASK1 file, validating magic, header, payload size, values."""
    dims, payload = _read_payload(path, MASK_MAGIC, 1)
    flat = np.frombuffer(payload, dtype=np.uint8)
    if not _binary(flat):
        raise FileFormatError(f"{path}: payload bytes must all be 0 or 1")
    return flat.reshape(dims).copy()
