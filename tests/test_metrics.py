import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdledm.errors import DimensionError
from rdledm.metrics import (
    MetricSeries,
    format_float,
    psnr,
    psnr_rmse_sweep,
    rmse,
    series_to_csv,
)

from conftest import random_sequence


def nonneg_stack(gen, frames=2, rows=4, cols=4):
    return gen.random((frames, rows, cols)).astype(np.complex128)


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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_error_gives_negative_infinity(self):
        x = np.ones((1, 1, 2), dtype=complex)
        assert psnr(x, np.full_like(x, 1e200)) == -math.inf

    def test_zero_reference(self):
        zero = np.zeros((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            psnr(zero, np.ones((1, 2, 2), dtype=complex))

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

    def test_frame_averaged_versus_pooled(self):
        x = np.ones((2, 1, 2), dtype=complex)
        xhat = x.copy()
        xhat[1] = 0.0
        assert rmse(x, xhat) == pytest.approx(0.5, rel=1e-12)
        assert rmse(x, xhat, frame_averaged=False) == pytest.approx(
            math.sqrt(0.5), rel=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    def test_psnr_matches_pooled_rmse(self, seed):
        # refmax PSNR and global RMSE describe the same number
        gen = np.random.default_rng(seed)
        x = nonneg_stack(gen) + 0.1
        xhat = nonneg_stack(gen)
        expected = -20.0 * math.log10(rmse(x, xhat, frame_averaged=False))
        assert psnr(x, xhat) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    def test_shrinking_error_improves_both_metrics(self, seed, c):
        gen = np.random.default_rng(seed)
        x = nonneg_stack(gen) + 0.1
        xhat = nonneg_stack(gen)
        closer = x + c * (xhat - x)
        assert psnr(x, closer) > psnr(x, xhat)
        assert rmse(x, closer) < rmse(x, xhat)


class TestMetricSeries:
    def test_accessors(self):
        s = MetricSeries("psnr", ((1, 20.0), (2, 21.5)))
        assert s.indices() == (1.0, 2.0)
        assert s.values() == (20.0, 21.5)

    def test_accepts_positive_infinity(self):
        MetricSeries("psnr", ((1, math.inf),))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            MetricSeries("psnr", ((1, bad),))

    @pytest.mark.parametrize("indices", [(1, 1), (2, 1)])
    def test_rejects_non_increasing_indices(self, indices):
        with pytest.raises(ValueError):
            MetricSeries("rmse", tuple((i, 0.0) for i in indices))


class TestSweepEvaluation:
    def test_matches_direct_calls(self, rng):
        ref = random_sequence(rng, 2, 4, 4)
        recons = [random_sequence(rng, 2, 4, 4) for _ in range(3)]
        ratios = [0.1, 0.2, 0.3]
        triples = [(ratio, r, ref) for ratio, r in zip(ratios, recons)]
        p, r = psnr_rmse_sweep(triples)
        assert p.label == "psnr" and r.label == "rmse"
        assert p.indices() == tuple(ratios)
        for (_, value), recon in zip(p.points, recons):
            assert value == psnr(ref, recon)
        for (_, value), recon in zip(r.points, recons):
            assert value == rmse(ref, recon)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            psnr_rmse_sweep([])

    def test_rejects_unsorted_ratios(self, rng):
        x = random_sequence(rng, 1, 2, 2)
        with pytest.raises(ValueError):
            psnr_rmse_sweep([(0.2, x, x), (0.1, x, x)])


class TestCsv:
    def test_round_trip_recovers_floats(self):
        values = (1.0 / 3.0, math.pi, 1e-17, 123456.789012345678)
        s = MetricSeries("v", tuple((i, v) for i, v in enumerate(values)))
        rows = list(csv.reader(io.StringIO(series_to_csv(s))))
        assert rows[0] == ["index", "v"]
        parsed = [float(row[1]) for row in rows[1:]]
        assert parsed == list(values)

    def test_two_point_series_is_three_lines(self):
        s = MetricSeries("psnr", ((1, 20.0), (2, 21.0)))
        assert len(series_to_csv(s).splitlines()) == 3

    def test_union_of_indices_with_gaps(self):
        a = MetricSeries("a", ((1, 10.0), (2, 20.0)))
        b = MetricSeries("b", ((2, 200.0), (3, 300.0)))
        rows = list(csv.reader(io.StringIO(series_to_csv(a, b))))
        assert rows[0] == ["index", "a", "b"]
        assert rows[1] == ["1", "10", ""]
        assert rows[2] == ["2", "20", "200"]
        assert rows[3] == ["3", "", "300"]

    def test_infinity_sentinel(self):
        s = MetricSeries("psnr", ((1, math.inf),))
        assert "inf" in series_to_csv(s).splitlines()[1]

    def test_rejects_no_series(self):
        with pytest.raises(ValueError):
            series_to_csv()


class TestFormatting:
    def test_infinities(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_lossless(self, value):
        assert float(format_float(value)) == value
