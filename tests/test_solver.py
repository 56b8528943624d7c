import json
import math
from pathlib import Path

import numpy as np
import pytest

from rdledm.errors import CallbackError, DimensionError, DivergenceError
from rdledm.experiment import load_experiment_config
from rdledm.phantom import PhantomSpec, generate_phantom, phantom_preset
from rdledm.sampling import make_mask, measure, zero_fill
from rdledm.metrics import rmse
from rdledm import solver
from rdledm.solver import (
    SolverConfig,
    baseline_tvnn_solve,
    rdledm_solve,
    relative_error,
)

from conftest import random_sequence

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def small_problem():
    truth = generate_phantom(PhantomSpec(rows=32, cols=32, frames=4))
    mask = make_mask("cartesian", 4, 32, 32, 0.4, seed=1)
    data = measure(truth, mask, 0.02, seed=2)
    return truth, mask, data


def run_config(**overrides):
    base = dict(max_iters=40, tol_re=1e-300)
    base.update(overrides)
    return SolverConfig(**base)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("lambda1", -0.1),
            ("lambda2", -1e-9),
            ("tau", -0.5),
            ("t1", 0.0),
            ("t2", -1.0),
            ("epsilon_threshold", -2.0),
            ("max_iters", 0),
            ("tol_re", 0.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "tau", "t1", "t2", "tol_re"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 10.0, True, "10", None])
    def test_rejects_non_integer_max_iters(self, value):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=value)

    def test_accepts_integer_max_iters_and_infinite_epsilon_threshold(self):
        assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
        assert SolverConfig(epsilon_threshold=math.inf).resolved_epsilon_threshold() == math.inf

    def test_epsilon_threshold_resolution(self):
        assert SolverConfig(tau=0.1).resolved_epsilon_threshold() == 5.0
        assert SolverConfig(tau=0.0).resolved_epsilon_threshold() == math.inf
        assert SolverConfig(epsilon_threshold=2.5).resolved_epsilon_threshold() == 2.5

    def test_defaults_are_valid(self):
        cfg = SolverConfig()
        assert cfg.tau > 0
        assert cfg.resolved_epsilon_threshold() == 1.0 / (2.0 * cfg.tau)


class TestRelativeError:
    def test_hand_values(self):
        a = np.full((1, 1, 2), 1.0 + 0j)
        b = np.full((1, 1, 2), 1.1 + 0j)
        assert relative_error(b, a) == pytest.approx(0.01, rel=1e-9)

    def test_zero_to_zero(self):
        z = np.zeros((1, 2, 2), dtype=complex)
        assert relative_error(z, z) == 0.0

    def test_step_away_from_zero(self):
        z = np.zeros((1, 2, 2), dtype=complex)
        assert relative_error(np.ones_like(z), z) == math.inf

    def test_strided_input(self):
        a = np.arange(1, 9, dtype=complex).reshape(1, 1, 8)
        b = 1.1 * a
        assert relative_error(b[:, :, ::2], a[:, :, ::2]) == pytest.approx(0.01, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            relative_error(np.zeros((1, 2, 2), dtype=complex),
                           np.zeros((1, 2, 3), dtype=complex))


class TestSolveMechanics:
    def test_report_shape_and_bookkeeping(self, small_problem):
        truth, mask, data = small_problem
        report = rdledm_solve(data, mask, run_config())
        assert report.reconstruction.shape == truth.shape
        assert report.iterations == 40
        assert len(report.re_series) == 40
        assert report.terminated_by == "max-iters"
        assert report.duration_seconds > 0
        assert report.psnr_series is None and report.rmse_series is None
        assert report.final_state.iteration == 40

    def test_tolerance_stop(self, small_problem):
        _, mask, data = small_problem
        report = rdledm_solve(data, mask, run_config(tol_re=1e-2, max_iters=500))
        assert report.terminated_by == "tolerance"
        assert report.iterations < 500
        assert report.re_series[-1] < 1e-2
        assert all(r >= 1e-2 for r in report.re_series[:-1])

    def test_reference_tracking(self, small_problem):
        truth, mask, data = small_problem
        report = rdledm_solve(data, mask, run_config(max_iters=5), reference=truth)
        assert len(report.psnr_series) == 5
        assert len(report.rmse_series) == 5
        assert all(v > 0 for v in report.rmse_series)

    def test_tracking_disabled(self, small_problem):
        truth, mask, data = small_problem
        report = rdledm_solve(
            data, mask, run_config(max_iters=3, record_metrics=False), reference=truth
        )
        assert report.psnr_series is None and report.rmse_series is None

    def test_callback_observes_each_iteration(self, small_problem):
        truth, mask, data = small_problem
        seen = []
        report = rdledm_solve(
            data, mask, run_config(max_iters=6), reference=truth,
            on_iteration=lambda n, re, p, r: seen.append((n, re, p, r)),
        )
        assert [n for n, *_ in seen] == list(range(1, 7))
        assert [re for _, re, *_ in seen] == list(report.re_series)
        assert [p for *_, p, _ in seen] == list(report.psnr_series)

    def test_callback_errors_are_wrapped(self, small_problem):
        _, mask, data = small_problem

        def boom(n, re, p, r):
            if n == 3:
                raise RuntimeError("observer failure")

        with pytest.raises(CallbackError) as excinfo:
            rdledm_solve(data, mask, run_config(max_iters=6), on_iteration=boom)
        assert excinfo.value.iteration == 3

    def test_deterministic(self, small_problem):
        _, mask, data = small_problem
        a = rdledm_solve(data, mask, run_config(max_iters=15))
        b = rdledm_solve(data, mask, run_config(max_iters=15))
        assert np.array_equal(a.reconstruction, b.reconstruction)
        assert a.re_series == b.re_series

    def test_dual_variable_stays_in_unit_ball(self, small_problem):
        _, mask, data = small_problem
        report = rdledm_solve(data, mask, run_config(max_iters=20))
        y = report.final_state.y
        assert np.abs(y.p).max() <= 1.0 + 1e-12
        assert np.abs(y.q).max() <= 1.0 + 1e-12

    def test_shape_mismatch(self, small_problem, rng):
        _, mask, data = small_problem
        with pytest.raises(DimensionError):
            rdledm_solve(data[:, :, :16], mask, run_config(max_iters=1))
        with pytest.raises(DimensionError):
            rdledm_solve(data, mask, run_config(max_iters=1),
                         reference=random_sequence(rng, 4, 32, 16))

    def test_non_finite_data_rejected(self, small_problem):
        _, mask, data = small_problem
        bad = data.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(DimensionError):
            rdledm_solve(bad, mask, run_config(max_iters=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_runaway_coupling_raises_divergence(self, small_problem):
        _, mask, data = small_problem
        config = run_config(max_iters=50, tau=1e150, epsilon_threshold=0.0)
        with pytest.raises(DivergenceError) as excinfo:
            rdledm_solve(data, mask, config)
        assert excinfo.value.iteration is not None


class TestFrameBlocks:
    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    def test_block_split_does_not_change_results(self, small_problem, monkeypatch, solve):
        # 4 frames: one block, then blocks of 1, 1 and 2 frames on 3 workers
        truth, mask, data = small_problem
        reports = []
        for workers in (1, 3):
            monkeypatch.setattr(solver, "_worker_count", lambda frames, w=workers: w)
            reports.append(solve(data, mask, run_config(max_iters=12), reference=truth))
        one, three = reports
        assert np.array_equal(one.reconstruction, three.reconstruction)
        assert one.re_series == three.re_series
        assert one.psnr_series == three.psnr_series


class TestSolveQuality:
    def test_beats_zero_fill(self, small_problem):
        truth, mask, data = small_problem
        report = rdledm_solve(data, mask, run_config(max_iters=150))
        assert rmse(truth, report.reconstruction) < rmse(truth, zero_fill(data, mask))

    def test_error_stack_stays_small(self, small_problem):
        truth, mask, data = small_problem
        report = rdledm_solve(data, mask, run_config(max_iters=60))
        state = report.final_state
        num = np.linalg.norm(state.x - (state.x_prime + state.eps))
        den = np.linalg.norm(state.x)
        assert num / den < 0.5


class TestGoldenSeries:
    def test_re_series_matches_frozen_run(self):
        # pins every solver field explicitly, so retuning package
        # defaults cannot silently shift this regression baseline
        config = load_experiment_config(DATA_DIR / "reconstruct_config.json")
        spec = phantom_preset(config.preset, config.size, config.frames)
        truth = generate_phantom(spec)
        mask = make_mask(config.mask_pattern, spec.frames, spec.rows, spec.cols,
                         config.mask_ratio, config.mask_seed,
                         static=config.static_mask)
        data = measure(truth, mask, config.noise_sigma, config.noise_seed)
        report = rdledm_solve(data, mask, config.solver)
        golden = json.loads((DATA_DIR / "golden_re.json").read_text())["re_series"]
        assert len(report.re_series) == len(golden)
        for step, (actual, expected) in enumerate(zip(report.re_series, golden)):
            assert actual == pytest.approx(expected, rel=1e-9), f"iteration {step + 1}"


class TestBaselineEquivalence:
    def test_tau_zero_matches_baseline_bitwise(self, small_problem):
        _, mask, data = small_problem
        config = run_config(max_iters=30, tau=0.0)
        a = rdledm_solve(data, mask, config)
        b = baseline_tvnn_solve(data, mask, config)
        assert np.array_equal(a.reconstruction, b.reconstruction)
        assert a.re_series == b.re_series

    def test_baseline_ignores_tau(self, small_problem):
        _, mask, data = small_problem
        a = baseline_tvnn_solve(data, mask, run_config(max_iters=10, tau=0.0))
        b = baseline_tvnn_solve(data, mask, run_config(max_iters=10, tau=0.3))
        assert np.array_equal(a.reconstruction, b.reconstruction)

    def test_matches_naive_reimplementation(self, small_problem):
        # independently coded loop, plain numpy throughout
        _, mask, data = small_problem
        config = run_config(max_iters=10, lambda1=0.03, lambda2=0.2)
        report = baseline_tvnn_solve(data, mask, config)

        m = mask.astype(np.float64)
        b = np.asarray(data)
        frames, rows, cols = b.shape
        fid = config.t1 / (1 + config.t1)
        tv = config.t1 * config.lambda1 / (1 + config.t1)
        thr = config.t1 * config.lambda2 / (1 + config.t1)
        sig = config.t2 * config.lambda1
        x = np.fft.ifft2(b * m, axes=(-2, -1), norm="ortho")
        yp = np.zeros((frames, rows - 1, cols), dtype=complex)
        yq = np.zeros((frames, rows, cols - 1), dtype=complex)
        for _ in range(10):
            div = np.zeros_like(x)
            div[:, :-1, :] += yp
            div[:, 1:, :] -= yp
            div[:, :, :-1] += yq
            div[:, :, 1:] -= yq
            resid = np.fft.fft2(x, axes=(-2, -1), norm="ortho") * m - b
            xb = x - fid * np.fft.ifft2(resid * m, axes=(-2, -1), norm="ortho") - tv * div
            u, s, vh = np.linalg.svd(xb.reshape(frames, -1).T, full_matrices=False)
            xn = ((u * np.maximum(s - thr, 0.0)) @ vh).T.reshape(frames, rows, cols)
            look = 2.0 * xn - x
            yp = yp + sig * (look[:, :-1, :] - look[:, 1:, :])
            yq = yq + sig * (look[:, :, :-1] - look[:, :, 1:])
            yp = yp / np.maximum(1.0, np.abs(yp))
            yq = yq / np.maximum(1.0, np.abs(yq))
            x = xn

        assert np.allclose(report.reconstruction, x, rtol=1e-10, atol=1e-12)
