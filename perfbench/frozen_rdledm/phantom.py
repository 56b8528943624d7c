"""Synthetic dynamic phantom: overlapping ellipses with motion and ramps.

A phantom is described by a grid size plus an ordered list of ellipses;
later ellipses overwrite earlier ones where they overlap. Geometry is
given in fractions of the grid so one description scales to any size.
Per frame t (of T), an ellipse center may oscillate sinusoidally and an
intensity may follow a saturating ramp, which makes the stack genuinely
dynamic yet strongly correlated across frames.

Rendered values are real, in [0, 1], returned as a complex128 stack so
the output plugs directly into the acquisition and solver code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidSpecError

PRESET_FRAMES = {"perf-like": 40, "cine-like": 20, "cerebral-like": 60}
PRESET_SIZES = (64, 128, 192)


@dataclass(frozen=True)
class Ellipse:
    """One ellipse, all geometry as fractions of (rows, cols).

    ``motion_amplitude`` displaces the center by
    ``amp * sin(2*pi*t/T + motion_phase)`` per axis, and the rendered
    intensity is ``intensity + ramp_amplitude * (1 - exp(-ramp_rate*t/T))``.
    """

    center: tuple[float, float]
    semi_axes: tuple[float, float]
    intensity: float
    motion_amplitude: tuple[float, float] = (0.0, 0.0)
    motion_phase: float = 0.0
    ramp_amplitude: float = 0.0
    ramp_rate: float = 0.0

    def intensity_at(self, t: int, frames: int) -> float:
        value = self.intensity
        if self.ramp_amplitude != 0.0:
            value += self.ramp_amplitude * (1.0 - math.exp(-self.ramp_rate * t / frames))
        return value

    def center_at(self, t: int, frames: int) -> tuple[float, float]:
        phase = 2.0 * math.pi * t / frames + self.motion_phase
        return (
            self.center[0] + self.motion_amplitude[0] * math.sin(phase),
            self.center[1] + self.motion_amplitude[1] * math.sin(phase),
        )


# A large static background disc, two moving compartments, and one
# enhancing lesion-like spot whose intensity saturates over the cycle.
DEFAULT_ELLIPSES = (
    Ellipse(center=(0.50, 0.50), semi_axes=(0.42, 0.42), intensity=0.20),
    Ellipse(center=(0.40, 0.40), semi_axes=(0.12, 0.10), intensity=0.90,
            motion_amplitude=(0.05, 0.0)),
    Ellipse(center=(0.60, 0.62), semi_axes=(0.08, 0.08), intensity=0.60,
            motion_amplitude=(0.0, 0.04), motion_phase=math.pi / 2.0),
    Ellipse(center=(0.50, 0.30), semi_axes=(0.06, 0.06), intensity=0.30,
            ramp_amplitude=0.50, ramp_rate=3.0),
)


@dataclass(frozen=True)
class PhantomSpec:
    rows: int
    cols: int
    frames: int
    ellipses: tuple[Ellipse, ...] = field(default=DEFAULT_ELLIPSES)
    name: str = "default"

    def __post_init__(self):
        if self.frames < 1:
            raise DimensionError(f"frames must be positive, got {self.frames}")
        if self.rows < 2 or self.cols < 2:
            raise DimensionError(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
        if not self.ellipses:
            raise InvalidSpecError("phantom needs at least one ellipse")
        for index, e in enumerate(self.ellipses):
            self._check_ellipse(index, e)

    def _check_ellipse(self, index: int, e: Ellipse) -> None:
        low = min(e.intensity, e.intensity + e.ramp_amplitude)
        high = max(e.intensity, e.intensity + e.ramp_amplitude)
        if low < 0.0 or high > 1.0:
            raise InvalidSpecError(
                f"ellipse {index}: intensity range [{low}, {high}] leaves [0, 1]"
            )
        if e.ramp_rate < 0.0:
            raise InvalidSpecError(f"ellipse {index}: ramp rate must be nonnegative")
        # Worst-case extent over the whole motion cycle must stay inside
        # the unit square, per axis.
        for axis in (0, 1):
            if e.semi_axes[axis] <= 0.0:
                raise InvalidSpecError(f"ellipse {index}: semi-axes must be positive")
            reach = abs(e.motion_amplitude[axis]) + e.semi_axes[axis]
            if e.center[axis] - reach < 0.0 or e.center[axis] + reach > 1.0:
                raise InvalidSpecError(
                    f"ellipse {index}: axis {axis} extent leaves the grid"
                )


def generate_phantom(spec: PhantomSpec) -> np.ndarray:
    """Render a spec into a complex128 stack of shape (frames, rows, cols)."""
    rows_grid = np.arange(spec.rows, dtype=float)[:, None]
    cols_grid = np.arange(spec.cols, dtype=float)[None, :]
    out = np.zeros((spec.frames, spec.rows, spec.cols), dtype=np.complex128)
    for t in range(spec.frames):
        frame = np.zeros((spec.rows, spec.cols), dtype=float)
        for e in spec.ellipses:
            cy, cx = e.center_at(t, spec.frames)
            cy *= spec.rows
            cx *= spec.cols
            ay = e.semi_axes[0] * spec.rows
            ax = e.semi_axes[1] * spec.cols
            inside = ((rows_grid - cy) / ay) ** 2 + ((cols_grid - cx) / ax) ** 2 <= 1.0
            frame[inside] = e.intensity_at(t, spec.frames)
        out[t] = frame
    return out


def phantom_preset(name: str, size: int = 128, frames: int | None = None) -> PhantomSpec:
    """Named preset on a square grid; ``frames=None`` takes the preset count."""
    if name not in PRESET_FRAMES:
        raise KeyError(f"unknown preset {name!r}, expected one of {sorted(PRESET_FRAMES)}")
    return PhantomSpec(
        rows=size,
        cols=size,
        frames=PRESET_FRAMES[name] if frames is None else frames,
        name=name,
    )


def phantom_presets(size: int = 128) -> list[PhantomSpec]:
    """All presets at one grid size, in a stable order."""
    return [phantom_preset(name, size) for name in sorted(PRESET_FRAMES)]
