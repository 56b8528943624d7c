import math

import numpy as np
import pytest

from rdledm.errors import DimensionError, InvalidSpecError
from rdledm.phantom import (
    DEFAULT_ELLIPSES,
    PRESET_FRAMES,
    Ellipse,
    PhantomSpec,
    generate_phantom,
    phantom_preset,
    phantom_presets,
)


def single_ellipse_spec(ellipse, rows=64, cols=64, frames=8):
    return PhantomSpec(rows=rows, cols=cols, frames=frames, ellipses=(ellipse,))


class TestRendering:
    def test_shape_and_dtype(self):
        x = generate_phantom(PhantomSpec(rows=32, cols=48, frames=5))
        assert x.shape == (5, 32, 48)
        assert x.dtype == np.complex128

    def test_values_real_in_unit_interval(self):
        x = generate_phantom(PhantomSpec(rows=64, cols=64, frames=6))
        assert np.array_equal(x.imag, np.zeros_like(x.imag))
        assert x.real.min() >= 0.0
        assert x.real.max() <= 1.0

    def test_deterministic(self):
        spec = PhantomSpec(rows=32, cols=32, frames=4)
        assert np.array_equal(generate_phantom(spec), generate_phantom(spec))

    def test_later_ellipse_paints_over_earlier(self):
        spec = PhantomSpec(
            rows=64,
            cols=64,
            frames=1,
            ellipses=(
                Ellipse(center=(0.5, 0.5), semi_axes=(0.3, 0.3), intensity=0.2),
                Ellipse(center=(0.5, 0.5), semi_axes=(0.1, 0.1), intensity=0.9),
            ),
        )
        x = generate_phantom(spec).real[0]
        assert x[32, 32] == 0.9
        assert x[32, 32 + 10] == 0.2

    def test_frames_change_over_time(self):
        x = generate_phantom(PhantomSpec(rows=64, cols=64, frames=8))
        assert any(not np.array_equal(x[t], x[0]) for t in range(1, 8))

    def test_frames_strongly_correlated(self):
        x = generate_phantom(PhantomSpec(rows=64, cols=64, frames=8)).real
        for t in range(1, 8):
            num = float((x[t] * x[t - 1]).sum())
            den = float(np.linalg.norm(x[t]) * np.linalg.norm(x[t - 1]))
            assert num / den > 0.9

    def test_motion_moves_center_of_mass(self):
        amp = 0.1
        e = Ellipse(center=(0.5, 0.5), semi_axes=(0.15, 0.15), intensity=1.0,
                    motion_amplitude=(amp, 0.0))
        spec = single_ellipse_spec(e, rows=128, cols=128, frames=8)
        x = generate_phantom(spec).real
        for t in range(8):
            mass = x[t].sum()
            row_com = (np.arange(128)[:, None] * x[t]).sum() / mass
            expected = (0.5 + amp * math.sin(2 * math.pi * t / 8)) * 128
            assert abs(row_com - expected) < 1.0

    def test_ramp_raises_intensity_monotonically(self):
        e = Ellipse(center=(0.5, 0.5), semi_axes=(0.1, 0.1), intensity=0.3,
                    ramp_amplitude=0.5, ramp_rate=3.0)
        x = generate_phantom(single_ellipse_spec(e, frames=10)).real
        peaks = [x[t].max() for t in range(10)]
        assert peaks[0] == 0.3
        assert all(b > a for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] < 0.8

    def test_coverage_scales_with_grid(self):
        # fractional geometry: the painted fraction barely depends on size
        fractions = []
        for size in (64, 128):
            x = generate_phantom(PhantomSpec(rows=size, cols=size, frames=1)).real
            fractions.append((x[0] > 0).mean())
        assert abs(fractions[0] - fractions[1]) < 0.05


class TestEllipse:
    def test_intensity_at_hand_values(self):
        e = Ellipse(center=(0.5, 0.5), semi_axes=(0.1, 0.1), intensity=0.3,
                    ramp_amplitude=0.5, ramp_rate=3.0)
        assert e.intensity_at(0, 10) == 0.3
        expected = 0.3 + 0.5 * (1.0 - math.exp(-1.5))
        assert e.intensity_at(5, 10) == pytest.approx(expected, rel=1e-12)

    def test_center_at_hand_values(self):
        e = Ellipse(center=(0.5, 0.4), semi_axes=(0.1, 0.1), intensity=0.5,
                    motion_amplitude=(0.05, 0.02), motion_phase=math.pi / 2)
        cy, cx = e.center_at(0, 8)
        assert cy == pytest.approx(0.55, rel=1e-12)
        assert cx == pytest.approx(0.42, rel=1e-12)


class TestValidation:
    def test_intensity_above_one(self):
        with pytest.raises(InvalidSpecError):
            single_ellipse_spec(
                Ellipse(center=(0.5, 0.5), semi_axes=(0.1, 0.1), intensity=1.2)
            )

    def test_ramp_escapes_unit_interval(self):
        with pytest.raises(InvalidSpecError):
            single_ellipse_spec(
                Ellipse(center=(0.5, 0.5), semi_axes=(0.1, 0.1), intensity=0.8,
                        ramp_amplitude=0.5, ramp_rate=1.0)
            )

    def test_negative_semi_axis(self):
        with pytest.raises(InvalidSpecError):
            single_ellipse_spec(
                Ellipse(center=(0.5, 0.5), semi_axes=(-0.1, 0.1), intensity=0.5)
            )

    def test_motion_leaves_grid(self):
        with pytest.raises(InvalidSpecError):
            single_ellipse_spec(
                Ellipse(center=(0.9, 0.5), semi_axes=(0.05, 0.05), intensity=0.5,
                        motion_amplitude=(0.1, 0.0))
            )

    def test_negative_ramp_rate(self):
        with pytest.raises(InvalidSpecError):
            single_ellipse_spec(
                Ellipse(center=(0.5, 0.5), semi_axes=(0.1, 0.1), intensity=0.5,
                        ramp_rate=-1.0)
            )

    def test_needs_an_ellipse(self):
        with pytest.raises(InvalidSpecError):
            PhantomSpec(rows=8, cols=8, frames=1, ellipses=())

    def test_bad_frames(self):
        with pytest.raises(DimensionError):
            PhantomSpec(rows=8, cols=8, frames=0)

    @pytest.mark.parametrize("rows,cols", [(1, 8), (8, 1)])
    def test_grid_below_2x2(self, rows, cols):
        with pytest.raises(DimensionError, match="at least 2x2"):
            PhantomSpec(rows=rows, cols=cols, frames=1)

    def test_default_ellipses_are_valid(self):
        PhantomSpec(rows=64, cols=64, frames=4, ellipses=DEFAULT_ELLIPSES)


class TestPresets:
    @pytest.mark.parametrize("name,frames", sorted(PRESET_FRAMES.items()))
    def test_preset_frame_counts(self, name, frames):
        spec = phantom_preset(name, size=64)
        assert (spec.rows, spec.cols, spec.frames) == (64, 64, frames)
        assert spec.name == name

    def test_frames_override(self):
        assert phantom_preset("cine-like", size=64, frames=7).frames == 7

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            phantom_preset("cardiac")

    def test_presets_listing_sorted(self):
        specs = phantom_presets(size=64)
        assert [s.name for s in specs] == sorted(PRESET_FRAMES)
