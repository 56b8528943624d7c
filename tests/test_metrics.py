import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdledm import experiment
from rdledm.errors import ConfigError, DimensionError
from rdledm.experiment import (
    _write_csv,
    experiment_config_from_json,
    run_reconstruction,
    run_sweep,
)
from rdledm.metrics import _score, format_float, psnr, rmse
from rdledm.phantom import generate_phantom, phantom_preset

from conftest import random_sequence


def nonneg_stack(gen, frames=2, rows=4, cols=4):
    return gen.random((frames, rows, cols)).astype(np.complex128)


def pooled_rmse(x, xhat):
    """RMS error over all entries of the magnitudes, reference peak scaled to 1."""
    peak = np.abs(x).max()
    return math.sqrt(np.mean((np.abs(x) / peak - np.abs(xhat) / peak) ** 2))


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
def test_metrics_do_not_depend_on_scale(rng, scale):
    x = random_sequence(rng, 2, 4, 4)
    xhat = x + 0.1 * random_sequence(rng, 2, 4, 4)
    for metric in (psnr, rmse):
        assert metric(scale * x, scale * xhat) == pytest.approx(metric(x, xhat), rel=1e-12)


class TestPsnr:
    def test_exact_match_is_infinite(self, rng):
        x = random_sequence(rng, 2, 4, 4)
        assert psnr(x, x.copy()) == math.inf

    def test_refmax_hand_value(self):
        x = np.ones((1, 1, 2), dtype=complex)
        xhat = np.array([[[0.9, 1.1]]], dtype=complex)
        assert psnr(x, xhat) == pytest.approx(20.0, abs=1e-9)

    def test_compares_magnitudes(self):
        x = np.ones((1, 1, 2), dtype=complex)
        assert psnr(x, (1j * x).copy()) == math.inf

    def test_overflowing_error_gives_negative_infinity(self):
        x = np.ones((1, 1, 2), dtype=complex)
        assert psnr(x, np.full_like(x, 1e200)) == -math.inf

    def test_zero_reference(self):
        zero = np.zeros((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            psnr(zero, np.ones((1, 2, 2), dtype=complex))

    def test_reference_magnitude_overflowing_float64(self):
        # |x| is about 2.1e308, beyond float64, though x itself is finite.
        x = np.full((1, 2, 2), 1.5e308 + 1.5e308j)
        assert psnr(x, 0.5 * x) == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)
        assert rmse(x, 0.5 * x) == pytest.approx(0.5, rel=1e-12)
        assert psnr(x, x.copy()) == math.inf

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            psnr(random_sequence(rng, 1, 2, 2), random_sequence(rng, 1, 2, 3))


class TestRmse:
    def test_exact_match_is_zero(self, rng):
        x = random_sequence(rng, 2, 3, 3)
        assert rmse(x, x.copy()) == 0.0

    def test_hand_value(self):
        x = np.array([[[1.0, 1.0]]], dtype=complex)
        xhat = np.array([[[1.0, 0.5]]], dtype=complex)
        assert rmse(x, xhat) == pytest.approx(math.sqrt(0.125), rel=1e-12)

    def test_normalizes_by_reference_peak(self):
        x = np.array([[[2.0, 2.0]]], dtype=complex)
        xhat = np.array([[[2.0, 1.0]]], dtype=complex)
        assert rmse(x, xhat) == pytest.approx(math.sqrt(0.125), rel=1e-12)

    def test_zero_reference(self):
        # no peak to scale by, as for PSNR; zero against zero is a match
        zero = np.zeros((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            rmse(zero, np.ones((1, 2, 2), dtype=complex))
        assert rmse(zero, zero.copy()) == 0.0

    def test_frame_averaged_versus_pooled(self):
        x = np.ones((2, 1, 2), dtype=complex)
        xhat = x.copy()
        xhat[1] = 0.0
        assert pooled_rmse(x, xhat) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert rmse(x, xhat) == pytest.approx(0.5, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_psnr_matches_pooled_rmse(self, seed):
        # refmax PSNR and global RMSE describe the same number
        gen = np.random.default_rng(seed)
        x = nonneg_stack(gen) + 0.1
        xhat = nonneg_stack(gen)
        expected = -20.0 * math.log10(pooled_rmse(x, xhat))
        assert psnr(x, xhat) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    def test_shrinking_error_improves_both_metrics(self, seed, c):
        gen = np.random.default_rng(seed)
        x = nonneg_stack(gen) + 0.1
        xhat = nonneg_stack(gen)
        closer = x + c * (xhat - x)
        assert psnr(x, closer) > psnr(x, xhat)
        assert rmse(x, closer) < rmse(x, xhat)


def small_config(out_dir, method="rdledm"):
    return experiment_config_from_json({
        "phantom": {"preset": "cine-like", "size": 32, "frames": 4},
        "mask": {"pattern": "cartesian", "ratio": 0.4, "seed": 3},
        "noise": {"sigma": 0.02, "seed": 5},
        "solver": {"method": method, "max_iters": 6, "tol_re": 1e-300},
        "output": {"directory": str(out_dir)},
    })


def recording_reconstruct(monkeypatch):
    """Route experiment._reconstruct through a wrapper; returns its (recon, report) list."""
    original = experiment._reconstruct
    calls = []

    def recording(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(experiment, "_reconstruct", recording)
    return calls


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestMetricSeries:
    """Per-iteration series and their scores as series.csv carries them."""

    def test_accessors(self, tmp_path, monkeypatch):
        calls = recording_reconstruct(monkeypatch)
        run_reconstruction(small_config(tmp_path))
        [(_, report)] = calls
        header, *rows = read_csv(tmp_path / "series.csv")
        assert header == ["index", "re", "psnr", "rmse"]
        columns = [[float(v) for v in column] for column in zip(*rows)]
        assert columns[0] == [float(n) for n in range(1, 7)]
        assert tuple(columns[1]) == report.re_series
        assert tuple(columns[2]) == report.psnr_series
        assert tuple(columns[3]) == report.rmse_series

    def test_accepts_positive_infinity(self, rng):
        x = random_sequence(rng, 2, 4, 4)
        assert _score(x, x.copy()) == (math.inf, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_invalid_values(self, rng, bad):
        x = random_sequence(rng, 2, 4, 4)
        xhat = x.copy()
        xhat[1, 2, 3] = bad
        with pytest.raises(DimensionError):
            _score(x, xhat)

    @pytest.mark.parametrize("indices", [(1, 1), (2, 1)])
    def test_rejects_non_increasing_indices(self, tmp_path, indices):
        with pytest.raises(ConfigError):
            run_sweep(small_config(tmp_path, "zerofill"), [i / 10 for i in indices])


class TestSweepEvaluation:
    """Each sweep cell is scored right after its reconstruction."""

    def test_matches_direct_calls(self, tmp_path, monkeypatch):
        calls = recording_reconstruct(monkeypatch)
        config = small_config(tmp_path, "zerofill")
        rows = run_sweep(config, [0.3, 0.5], patterns=("cartesian", "random2d"))["rows"]
        truth = generate_phantom(phantom_preset("cine-like", 32, 4))
        assert len(rows) == len(calls) == 4
        for (_, _, p_value, r_value), (recon, report) in zip(rows, calls):
            assert report is None
            assert p_value == psnr(truth, recon)
            assert r_value == rmse(truth, recon)
        assert [row[:2] for row in rows] == [
            ("cartesian", 0.3), ("cartesian", 0.5), ("random2d", 0.3), ("random2d", 0.5),
        ]

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(small_config(tmp_path, "zerofill"), [])
        assert list(tmp_path.iterdir()) == []

    def test_rejects_unsorted_ratios(self, tmp_path, monkeypatch):
        # checked once, before any cell is solved or any file is written
        calls = recording_reconstruct(monkeypatch)
        with pytest.raises(ConfigError):
            run_sweep(small_config(tmp_path, "zerofill"), [0.3, 0.5, 0.4])
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestCsv:
    """_write_csv, the writer behind series.csv and sweep.csv."""

    def test_round_trip_recovers_floats(self, tmp_path):
        values = (1.0 / 3.0, math.pi, 1e-17, 123456.789012345678)
        _write_csv(tmp_path / "v.csv", ("index", "v"), enumerate(values))
        rows = read_csv(tmp_path / "v.csv")
        assert rows[0] == ["index", "v"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2", "3"]
        assert [float(row[1]) for row in rows[1:]] == list(values)

    def test_two_point_series_is_three_lines(self, tmp_path):
        _write_csv(tmp_path / "s.csv", ("index", "psnr"), [(1, 20.0), (2, 21.0)])
        assert (tmp_path / "s.csv").read_bytes() == b"index,psnr\r\n1,20\r\n2,21\r\n"

    def test_infinity_sentinel(self, tmp_path):
        _write_csv(tmp_path / "s.csv", ("pattern", "psnr", "rmse"),
                   [("radial", math.inf, 0.0), ("radial", -math.inf, math.inf)])
        assert read_csv(tmp_path / "s.csv")[1:] == [
            ["radial", "inf", "0"], ["radial", "-inf", "inf"],
        ]


class TestFormatting:
    def test_infinities(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_lossless(self, value):
        assert float(format_float(value)) == value
