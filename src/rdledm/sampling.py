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
radial spoke search builds each spoke count it tries once, rasterising
the spokes of every frame together into one flat mask. ``measure``,
``forward_op`` and ``adjoint_op`` run on blocks of frames, one block per
worker (see ``_threads._FrameBlocks``), each writing only its own frames
of one output stack, so their bytes do not depend on the worker count.

Mask files ("MASK1") mirror the sequence format: magic b"MASK1\\n", an
ASCII "T m n" header line, then exactly T*m*n payload bytes, each 0 or 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._threads import _FrameBlocks
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


def _check_seed(seed: int) -> None:
    # NumPy's SeedSequence rejects a negative seed with a message that
    # names no argument.
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


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
    # A zero direction takes the inf branch, and a tiny one may overflow to
    # it; the quotients np.where drops for a zero one are inf or, on a
    # 2-wide axis (center == upper), 0/0. None of these is an error.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(
            direction > 0,
            (upper - center) / direction,
            np.where(direction < 0, -center / direction, np.inf),
        )


def _chord_pixels(start: np.ndarray, step: np.ndarray, u: np.ndarray, size: int) -> np.ndarray:
    # Grid index of every point start + u*step along each chord: the
    # nearest integer, clipped to the grid (clipping the rounded floats
    # gives the same integers as clipping after the cast).
    points = step[:, None] * u
    points += start[:, None]
    np.rint(points, out=points)
    np.clip(points, 0, size - 1, out=points)
    return points.astype(np.intp)


def _radial_raster(rows: int, cols: int, spokes: int, offsets: np.ndarray,
                   frames: int) -> np.ndarray:
    """(draws, rows, cols) stack: frame t holds ``spokes`` equally spaced
    full-grid spokes through the center, rotated by ``offsets[t]``.
    ``frames`` is the frame count of the mask the stack becomes (a static
    mask repeats its one draw), which sizes the blocks of chords."""
    draws = offsets.size
    angles = offsets[:, None] + np.pi * np.arange(spokes) / spokes
    dy, dx = np.sin(angles).ravel(), np.cos(angles).ravel()
    cy, cx = rows // 2, cols // 2
    t_fwd = np.minimum(_boundary_extent(cy, dy, rows - 1), _boundary_extent(cx, dx, cols - 1))
    t_bwd = np.minimum(_boundary_extent(cy, -dy, rows - 1), _boundary_extent(cx, -dx, cols - 1))
    r0, c0 = cy - t_bwd * dy, cx - t_bwd * dx
    dr, dc = cy + t_fwd * dy - r0, cx + t_fwd * dx - c0
    frame_rows = np.repeat(np.arange(draws) * rows, spokes)
    # Sample each full-grid chord densely enough that consecutive points
    # land on adjacent pixels; rounding then yields a connected digital
    # line from boundary to boundary through the center.
    u = np.linspace(0.0, 1.0, rows + cols + 1)
    out = np.zeros(draws * rows * cols, dtype=np.uint8)
    # A block of chords holds at most 8192 points, so its three 8-byte
    # point arrays stay cache-sized, and at most 1/8 point per entry of
    # the returned mask: 3 bytes per entry at any spoke count.
    block = max(1, min(8192, frames * rows * cols // 8) // u.size)
    for first in range(0, dy.size, block):
        chords = slice(first, first + block)
        # Flat index (t*rows + r)*cols + c of every chord point.
        index = _chord_pixels(r0[chords], dr[chords], u, rows)
        index += frame_rows[chords, None]
        index *= cols
        index += _chord_pixels(c0[chords], dc[chords], u, cols)
        out[index] = 1
    return out.reshape(draws, rows, cols)


def _radial_mask(draws: int, frames: int, rows: int, cols: int, ratio: float,
                 seed: int) -> np.ndarray:
    units = np.array([_frame_rng(seed, t).random() for t in range(draws)])

    def build(spokes: int) -> np.ndarray:
        # Offsets live in [0, pi/spokes): rotating further only permutes
        # the spoke set.
        return _radial_raster(rows, cols, spokes, units * np.pi / spokes, frames)

    # Each spoke count the search tries is built once. Its mask is kept
    # while the count can still be chosen, that is while it lies in the
    # bracket lo - 1 .. hi, so the chosen one need not be built again and
    # at most three masks are alive at a time.
    masks: dict[int, np.ndarray] = {}

    @functools.cache
    def fraction(spokes: int) -> float:
        masks[spokes] = mask = build(spokes)
        return np.count_nonzero(mask) / mask.size

    def narrow(lo: int, hi: int) -> None:
        for spokes in [s for s in masks if not lo - 1 <= s <= hi]:
            del masks[spokes]

    cap = 4 * (rows + cols)
    lo, hi = 1, 2
    while hi < cap and fraction(hi) < ratio:
        lo, hi = hi, hi * 2
        narrow(lo, hi)
    hi = min(hi, cap)
    # Smallest spoke count reaching the requested ratio; its neighbor
    # from below may land closer, so compare both.
    while lo < hi:
        mid = (lo + hi) // 2
        if fraction(mid) < ratio:
            lo = mid + 1
        else:
            hi = mid
        narrow(lo, hi)
    best = min((s for s in (lo - 1, lo) if s >= 1), key=lambda s: abs(fraction(s) - ratio))
    error = abs(fraction(best) - ratio)
    if error > RADIAL_RATIO_TOLERANCE:
        raise InfeasibleRatioError(
            f"radial pattern cannot reach ratio {ratio} on a {rows}x{cols} grid; "
            f"closest achievable is off by {error:.4f}"
        )
    return masks[best]


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
    _check_seed(seed)
    if ratio == 1.0:
        return np.ones((frames, rows, cols), dtype=np.uint8)

    draws = 1 if static else frames
    if pattern == "radial":
        centered = _radial_mask(draws, frames, rows, cols, ratio, seed)
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
    ``sigma=0`` reproduces the noiseless masked spectrum exactly. A
    ``sigma`` so large that a noisy value overflows the float range
    raises ``ValueError``.
    """
    x, mask = _as_stack_and_mask(x, mask)
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    _check_seed(seed)
    k = np.empty(x.shape, dtype=np.complex128)

    def acquire(block: slice) -> None:
        # The frames of one block: their DFT into k, the noise of each
        # frame from its own stream, then the mask product. Each frame's
        # noise is drawn into one reused buffer, real part first, scaled
        # in place and added into the real, then the imaginary parts of k.
        # An overflow in either step stops the draw, so the k-space
        # returned is always finite.
        _dft2(x[block], out=k[block])
        if sigma > 0:
            noise = np.empty(x.shape[1:])
            with np.errstate(over="raise"):
                for t in range(block.start, block.stop):
                    rng = _frame_rng(seed, t)
                    for part in (k[t].real, k[t].imag):
                        rng.standard_normal(out=noise)
                        noise *= sigma
                        part += noise
        k[block] *= mask[block]

    try:
        with _FrameBlocks(x.shape) as blocks:
            blocks.split(acquire, len(x))
    except FloatingPointError:
        raise ValueError(
            f"sigma {sigma} is too large: the noisy k-space overflows the float range"
        ) from None
    return k


def _forward(x: np.ndarray, mask: np.ndarray, out: np.ndarray) -> None:
    # out <- F x * mask, the product in place; out is a C-contiguous stack
    # (or a frame block of one).
    _dft2(x, out=out)
    out *= mask


def _adjoint(b: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out <- F^H (b * mask), the inverse DFT in place; out is a C-contiguous
    # stack (or a frame block of one).
    np.multiply(b, mask, out=out)
    _idft2(out, out=out)
    return out


def _frame_parallel(kernel, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # kernel(x, mask, out) on the frame blocks of a new C-order stack out.
    out = np.empty(x.shape, dtype=np.complex128)
    with _FrameBlocks(x.shape) as blocks:
        blocks.run(kernel, x, mask, out)
    return out


def forward_op(x, mask) -> np.ndarray:
    """Masked unitary DFT: the acquisition operator without noise."""
    return _frame_parallel(_forward, *_as_stack_and_mask(x, mask))


def adjoint_op(b, mask) -> np.ndarray:
    """Adjoint of :func:`forward_op`: re-mask, then inverse DFT."""
    return _frame_parallel(_adjoint, *_as_stack_and_mask(b, mask))


def zero_fill(b, mask) -> np.ndarray:
    """Zero-filling reconstruction: the adjoint applied to the data."""
    return adjoint_op(b, mask)


def write_mask(mask, path) -> None:
    """Write a mask to ``path`` in the MASK1 format."""
    _write_payload(path, MASK_MAGIC, as_mask(mask))


def read_mask(path) -> np.ndarray:
    """Read a MASK1 file, validating magic, header, payload size, values."""
    mask = _read_payload(path, MASK_MAGIC, np.dtype(np.uint8))
    if not _binary(mask):
        raise FileFormatError(f"{path}: payload bytes must all be 0 or 1")
    return mask
