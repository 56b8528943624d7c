import ctypes
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdledm.errors import CallbackError, DimensionError, DivergenceError
from rdledm.experiment import load_experiment_config
from rdledm.phantom import PhantomSpec, generate_phantom, phantom_preset
from rdledm.sampling import make_mask, measure, zero_fill
from rdledm.metrics import psnr, rmse
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


@pytest.fixture(scope="module")
def tiled_problem():
    # 48 x 48 = 2304 pixels: SVT Grams from two whole 1024-column tiles and
    # a partial third; 5 frames, so 1, 2 and 3 workers cut frames and tiles
    # differently. With EPS_SWITCHES_ON eps is zero in iterations 1-23 of
    # 40 and nonzero from iteration 24 on.
    truth = generate_phantom(PhantomSpec(rows=48, cols=48, frames=5))
    mask = make_mask("radial", 5, 48, 48, 0.4, seed=1)
    data = measure(truth, mask, 0.02, seed=2)
    return truth, mask, data


@pytest.fixture(scope="module")
def tiled_cartesian_problem():
    # tiled_problem's shape with a cartesian mask: the DFT pair runs on the
    # row axis alone, on one frame block of 5 or on blocks of 1, 2 and 2.
    truth = generate_phantom(PhantomSpec(rows=48, cols=48, frames=5))
    mask = make_mask("cartesian", 5, 48, 48, 0.4, seed=1)
    data = measure(truth, mask, 0.02, seed=2)
    return truth, mask, data


def run_config(**overrides):
    base = dict(max_iters=40, tol_re=1e-300)
    base.update(overrides)
    return SolverConfig(**base)


# In 40 iterations of the small problem, the eps SVT returns its exact
# zero stack in iterations 1-27 (before the decomposition in 1-5, after
# it finds no singular value above the threshold in 6-27), and a nonzero
# eps from iteration 28 on.
EPS_SWITCHES_ON = {"tau": 0.1, "epsilon_threshold": 0.17}


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

    def test_subnormal_scale(self):
        # 1 / 3e-310 overflows, so the rescale must not divide by the
        # reciprocal of the scale
        a = np.array([[[3e-310, 1e-310j], [0, 0]]])
        b = a.copy()
        b[0, 1, 0] = 1e-310
        assert relative_error(b, a) == pytest.approx(0.1, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            relative_error(np.zeros((1, 2, 2), dtype=complex),
                           np.zeros((1, 2, 3), dtype=complex))

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_squared_norms(self, rng, scale):
        a = random_sequence(rng, 2, 3, 3)
        b = a + random_sequence(rng, 2, 3, 3, scale=0.1)
        assert relative_error(scale * b, scale * a) == pytest.approx(
            relative_error(b, a), rel=1e-12)
        # the difference itself overflows: ||-2x||^2 / ||x||^2 = 4
        huge = np.full((1, 2, 2), 1e308 + 0j)
        assert relative_error(-huge, huge) == 4.0

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-200])
    def test_underflowing_squared_norms(self, rng, scale):
        # ||x||^2 is subnormal or zero: taken on rescaled copies, not read as 0
        a = random_sequence(rng, 2, 3, 3)
        b = a + random_sequence(rng, 2, 3, 3, scale=0.1)
        assert relative_error(scale * b, scale * a) == pytest.approx(
            relative_error(b, a), rel=1e-12)
        ones = np.ones((1, 1, 2), dtype=complex)
        assert relative_error(1.1e-170 * ones, 1e-170 * ones) == pytest.approx(0.01, rel=1e-9)


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

    def test_tracking_against_overflowing_reference(self, small_problem):
        # every part is finite, but every magnitude overflows float64
        _, mask, data = small_problem
        reference = np.full(data.shape, 1.5e308 + 1.5e308j)
        report = rdledm_solve(data, mask, run_config(max_iters=3), reference=reference)
        assert all(math.isfinite(v) for v in report.psnr_series + report.rmse_series)
        assert report.psnr_series[-1] == psnr(reference, report.reconstruction)
        assert report.rmse_series[-1] == rmse(reference, report.reconstruction)

    def test_tracking_disabled(self, small_problem):
        # without a reference the callback sees no PSNR/RMSE either
        _, mask, data = small_problem
        seen = []
        report = rdledm_solve(data, mask, run_config(max_iters=3),
                              on_iteration=lambda n, re, p, r: seen.append((p, r)))
        assert seen == [(None, None)] * 3
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

    def test_runaway_coupling_raises_divergence(self, small_problem):
        _, mask, data = small_problem
        config = run_config(max_iters=50, tau=1e150, epsilon_threshold=0.0)
        with pytest.raises(DivergenceError) as excinfo:
            rdledm_solve(data, mask, config)
        assert excinfo.value.iteration is not None


class TestFrameBlocks:
    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    def test_block_split_does_not_change_results(self, small_problem, monkeypatch, solve):
        # 4 frames: one block; blocks of 2 and 2; blocks of 1, 1 and 2
        truth, mask, data = small_problem
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(solver, "_worker_count", lambda *_, w=workers: w)
            reports.append(solve(data, mask, run_config(max_iters=12), reference=truth))
        one, *split = reports
        for other in split:
            assert np.array_equal(one.reconstruction, other.reconstruction)
            assert one.re_series == other.re_series
            assert one.psnr_series == other.psnr_series

    @pytest.mark.parametrize("solve,overrides", [
        (baseline_tvnn_solve, {}),
        (rdledm_solve, {}),
        (rdledm_solve, EPS_SWITCHES_ON),
    ])
    def test_block_split_is_byte_identical(self, small_problem, monkeypatch, solve, overrides):
        # both block kernels finish sums in place; signed zeros must not move
        _, mask, data = small_problem
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(solver, "_worker_count", lambda *_, w=workers: w)
            report = solve(data, mask, run_config(max_iters=40, **overrides))
            state = report.final_state
            results.append((report.reconstruction.tobytes(), state.x_prime.tobytes(),
                            state.eps.tobytes(), state.y.p.tobytes(), state.y.q.tobytes(),
                            report.re_series))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("solve,overrides", [
        (baseline_tvnn_solve, {}),
        (rdledm_solve, {}),
        (rdledm_solve, EPS_SWITCHES_ON),
    ])
    def test_several_tiles_are_byte_identical(self, tiled_problem, monkeypatch, solve,
                                              overrides):
        # the pool also forms partial Grams and rebuilds by groups of tiles:
        # 3 tiles as one group, 1 + 2 and 1 + 1 + 1. Three workers on fewer
        # cores, with frequent thread switches, also put the disjoint
        # writes of the workers to the test.
        _, mask, data = tiled_problem
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(solver, "_worker_count", lambda *_, w=workers: w)
                report = solve(data, mask, run_config(max_iters=40, **overrides))
                state = report.final_state
                assert state.y.p.shape == (5, 47, 48) and state.y.q.shape == (5, 48, 47)
                results.append((report.reconstruction.tobytes(), state.x_prime.tobytes(),
                                state.eps.tobytes(), state.y.p.tobytes(),
                                state.y.q.tobytes(), report.re_series))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]
        if overrides:
            assert np.count_nonzero(report.final_state.eps) > 0

    @pytest.mark.parametrize("solve,overrides", [
        (baseline_tvnn_solve, {}),
        (rdledm_solve, EPS_SWITCHES_ON),
    ])
    def test_row_axis_path_is_byte_identical(self, tiled_cartesian_problem, monkeypatch,
                                             solve, overrides):
        _, mask, data = tiled_cartesian_problem
        assert solver._fft_axes(mask) == (-2,)
        results = []
        for workers in (1, 3):
            monkeypatch.setattr(solver, "_worker_count", lambda *_, w=workers: w)
            report = solve(data, mask, run_config(max_iters=40, **overrides))
            state = report.final_state
            results.append((report.reconstruction.tobytes(), state.x_prime.tobytes(),
                            state.eps.tobytes(), state.y.p.tobytes(),
                            state.y.q.tobytes(), report.re_series))
        assert results[0] == results[1]

    def test_worker_rule(self, monkeypatch):
        # a thread per block only from 2**17 voxels per worker on
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert solver._worker_count(8, 64, 64) == 1
        assert solver._worker_count(20, 128, 128) == 2
        assert solver._worker_count(8, 128, 128) == 1
        assert solver._worker_count(8, 192, 192) == 2
        assert solver._worker_count(1, 512, 512) == 1
        with solver._FrameBlocks((8, 64, 64)) as blocks:
            assert blocks._pool is None

    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    @pytest.mark.parametrize("problem,workers", [("small_problem", 1),
                                                 ("tiled_problem", 1),
                                                 ("tiled_problem", 2)])
    def test_first_re_is_the_public_relative_error(self, request, monkeypatch, solve,
                                                   problem, workers):
        # the solve's first ||x||^2 is summed per frame like every later one
        _, mask, data = request.getfixturevalue(problem)
        monkeypatch.setattr(solver, "_worker_count", lambda *_: workers)
        report = solve(data, mask, run_config(max_iters=1))
        expected = relative_error(report.reconstruction, zero_fill(data, mask))
        assert report.re_series == (expected,)

    def test_one_worker_imports_no_pool(self):
        # a solve small enough for one worker leaves concurrent.futures unloaded
        code = (
            "import sys, numpy as np\n"
            "from rdledm.solver import SolverConfig, baseline_tvnn_solve\n"
            "data = np.ones((4, 16, 16), complex)\n"
            "baseline_tvnn_solve(data, np.ones((4, 16, 16), bool), SolverConfig(max_iters=3))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=120, check=True,
                                env={**os.environ,
                                     "PYTHONPATH": str(Path(solver.__file__).parents[1])})
        assert result.stdout.strip() == "False"


def _flipped(mask):
    # mask with one entry of one frame flipped
    mask = mask.copy()
    mask[2, 0, 5] ^= 1
    return mask


AXES_CASES = {
    "cartesian": lambda shape: make_mask("cartesian", *shape, 0.4, seed=1),
    "static-cartesian": lambda shape: make_mask("cartesian", *shape, 0.4, seed=1,
                                                static=True),
    "all-zero": lambda shape: np.zeros(shape, dtype=np.uint8),
    "all-one": lambda shape: np.ones(shape, dtype=np.uint8),
    "radial": lambda shape: make_mask("radial", *shape, 0.4, seed=1),
    "random2d": lambda shape: make_mask("random2d", *shape, 0.4, seed=1),
    "cartesian-one-entry-flipped":
        lambda shape: _flipped(make_mask("cartesian", *shape, 0.4, seed=1)),
}


class TestFftAxes:
    @pytest.mark.parametrize("case,axes", [
        ("cartesian", (-2,)),
        ("static-cartesian", (-2,)),
        ("all-zero", (-2,)),
        ("all-one", (-2,)),
        ("radial", (-2, -1)),
        ("random2d", (-2, -1)),
        ("cartesian-one-entry-flipped", (-2, -1)),
    ])
    def test_row_constant_masks_take_the_row_axis(self, case, axes):
        assert solver._fft_axes(AXES_CASES[case]((4, 16, 12))) == axes

    @pytest.mark.parametrize("solve,overrides", [
        (rdledm_solve, {"tau": 0.02, "epsilon_threshold": 0.05}),
        (baseline_tvnn_solve, {}),
    ])
    def test_row_axis_path_matches_two_axis_path(self, small_problem, monkeypatch, solve,
                                                 overrides):
        # The row axis and both axes give one operator, so the paths differ
        # by round-off only (at most 3.1e-13 relative, in the RE series).
        # Both subtract the zero-filled image F^H M b, so the row path also
        # checks that the kernel is handed that image in each of its 40
        # iterations, long after the loop has started to reuse its buffers
        # (one worker, so one block: the whole stack).
        truth, mask, data = small_problem
        config = run_config(max_iters=40, **overrides)
        chosen, subtracted = [], []
        choose, kernel, zero_filled = solver._fft_axes, solver._primal_block, zero_fill(data, mask)

        def spy(x, sampled, aliased, *stacks, **params):
            subtracted.append(np.array_equal(aliased, zero_filled))
            kernel(x, sampled, aliased, *stacks, **params)

        monkeypatch.setattr(solver, "_worker_count", lambda *_: 1)
        monkeypatch.setattr(solver, "_primal_block", spy)
        monkeypatch.setattr(solver, "_fft_axes",
                            lambda m: chosen.append(choose(m)) or chosen[-1])
        row = solve(data, mask, config, reference=truth)
        assert chosen == [(-2,)] and subtracted == [True] * 40
        monkeypatch.setattr(solver, "_primal_block", kernel)
        monkeypatch.setattr(solver, "_fft_axes", lambda m: (-2, -1))
        both = solve(data, mask, config, reference=truth)
        rel = 1e-12

        def stacks(report):
            state = report.final_state
            return {"x": state.x, "x_prime": state.x_prime, "eps": state.eps,
                    "y.p": state.y.p, "y.q": state.y.q}

        for (name, a), b in zip(stacks(row).items(), stacks(both).values()):
            assert np.abs(a - b).max() <= rel * np.abs(b).max(), name
        for series in ("re_series", "psnr_series", "rmse_series"):
            np.testing.assert_allclose(getattr(row, series), getattr(both, series),
                                       rtol=rel, atol=0, err_msg=series)
        if overrides:
            assert np.count_nonzero(both.final_state.eps) > 0


@pytest.fixture
def blas_threads():
    # (get, set) of NumPy's BLAS thread count; the count is restored after
    calls = solver._blas_thread_calls()
    if calls is None:
        pytest.skip("NumPy's BLAS exports no thread-count call")
    get, set_ = calls
    before = get()
    yield get, set_
    set_(before)


class TestThreadBudget:
    """A solve runs BLAS on one thread and restores the caller's count."""

    @pytest.mark.parametrize("outcome", ["return", "divergence", "callback", "interrupt"])
    def test_count_restored_on_every_exit(self, small_problem, blas_threads, outcome):
        _, mask, data = small_problem
        get, set_ = blas_threads
        set_(2)
        seen = []

        def observe(n, re, p, r):
            seen.append(get())
            if outcome == "callback":
                raise RuntimeError("observer failure")
            if outcome == "interrupt":
                raise KeyboardInterrupt

        config = run_config(max_iters=5)
        if outcome == "divergence":
            # the runaway coupling of TestSolveMechanics
            config = run_config(max_iters=50, tau=1e150, epsilon_threshold=0.0)
        expected = {"return": None, "divergence": DivergenceError,
                    "callback": CallbackError, "interrupt": KeyboardInterrupt}[outcome]
        if expected is None:
            rdledm_solve(data, mask, config, on_iteration=observe)
        else:
            with pytest.raises(expected):
                rdledm_solve(data, mask, config, on_iteration=observe)
        assert seen and set(seen) == {1}
        assert get() == 2

    def test_results_do_not_depend_on_callers_count(self, blas_threads):
        # the relative error's dot products no longer follow the BLAS split
        _, set_ = blas_threads
        truth = generate_phantom(PhantomSpec(rows=32, cols=32, frames=8))
        mask = make_mask("cartesian", 8, 32, 32, 0.4, seed=1)
        data = measure(truth, mask, 0.02, seed=2)
        reports = []
        for threads in (1, 2):
            set_(threads)
            reports.append(rdledm_solve(data, mask, run_config(max_iters=30)))
        one, two = reports
        assert one.reconstruction.tobytes() == two.reconstruction.tobytes()
        assert one.re_series == two.re_series

    def test_public_relative_error_does_not_depend_on_callers_count(self, blas_threads):
        # the public call holds BLAS at one thread as a solve does; a
        # threaded dot product sums in another order
        get, set_ = blas_threads
        gen = np.random.default_rng(5)
        a = random_sequence(gen, 20, 128, 128)
        b = a + random_sequence(gen, 20, 128, 128, scale=0.01)
        values = []
        for threads in (1, 2):
            set_(threads)
            values.append(relative_error(b, a))
            assert get() == threads
        assert values[0].hex() == values[1].hex()

    def test_overlapping_solves_restore_count(self, small_problem, blas_threads):
        # the first solve to leave must not restore the count while the
        # second still runs, nor the second leave it at 1
        _, mask, data = small_problem
        get, set_ = blas_threads
        set_(2)
        inside, first_left = threading.Event(), threading.Event()
        counts = []

        def hold(n, re, p, r):
            if n == 1:
                inside.set()
                assert first_left.wait(timeout=60)
                counts.append(get())

        second = threading.Thread(
            target=rdledm_solve, args=(data, mask, run_config(max_iters=2)),
            kwargs={"on_iteration": hold})
        second.start()
        try:
            assert inside.wait(timeout=60)
            rdledm_solve(data, mask, run_config(max_iters=2))
            assert get() == 1
        finally:
            first_left.set()
            second.join(timeout=60)
        assert not second.is_alive()
        assert counts == [1]
        assert get() == 2

    def test_solve_runs_without_thread_calls(self, small_problem, monkeypatch, blas_threads):
        # as on a BLAS that exports none of the names
        _, mask, data = small_problem
        get, _ = blas_threads
        before = get()
        monkeypatch.setattr(solver, "_BLAS_THREAD_CALLS", (("no_such_get", "no_such_set"),))
        assert solver._blas_thread_calls() is None
        seen = []
        report = rdledm_solve(data, mask, run_config(max_iters=3),
                              on_iteration=lambda *_: seen.append(get()))
        assert report.iterations == 3
        assert seen == [before] * 3 and get() == before

    def test_symbols_looked_up_once(self, monkeypatch):
        # a names tuple not seen before takes one lookup, and the second
        # hold reuses it
        loads = []
        real_cdll = ctypes.CDLL

        def counting_cdll(*args, **kwargs):
            loads.append(args)
            return real_cdll(*args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
        monkeypatch.setattr(solver, "_BLAS_THREAD_CALLS",
                            solver._BLAS_THREAD_CALLS + (("no_such_get", "no_such_set"),))
        a = np.ones((4, 8, 8), dtype=complex)
        assert [relative_error(2 * a, a) for _ in range(2)] == [1.0, 1.0]
        assert len(loads) == 1


# The configs of the hostile-input probe: defaults, strong coupling,
# huge weights, the smallest and huge steps, a zero eps threshold, and
# all weights zero.
HOSTILE_CONFIGS = [
    {},
    {"tau": 0.5},
    {"lambda1": 1e300, "lambda2": 1e300},
    {"t1": 5e-324, "t2": 5e-324},
    {"t1": 1e300, "t2": 1e300},
    {"epsilon_threshold": 0.0},
    {"lambda1": 0.0, "lambda2": 0.0, "tau": 0.0},
]


class TestHostileInput:
    """Any finite problem ends in a finite report or a DivergenceError, silently."""

    @settings(max_examples=150)
    @given(frames=st.integers(1, 4), rows=st.integers(2, 9), cols=st.integers(2, 9),
           exponent=st.integers(-310, 300), masking=st.sampled_from(["zeros", "ones", "random"]),
           overrides=st.sampled_from(HOSTILE_CONFIGS), seed=st.integers(0, 2**32 - 1))
    def test_finite_report_or_divergence(self, frames, rows, cols, exponent, masking,
                                         overrides, seed):
        gen = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        truth = random_sequence(gen, frames, rows, cols, scale=scale)
        if masking == "random":
            mask = gen.integers(0, 2, (frames, rows, cols))
        else:
            mask = np.full((frames, rows, cols), masking == "ones")
        data = measure(truth, mask, 0.05 * scale, seed=seed)
        config = SolverConfig(max_iters=30, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = rdledm_solve(data, mask, config, reference=truth)
            except DivergenceError:
                return
        assert np.isfinite(report.reconstruction).all()
        for series in (report.re_series, report.psnr_series, report.rmse_series):
            assert not any(math.isnan(value) for value in series)


class TestLoopShortcuts:
    """Skipped work and folded checks leave every bit and error as it was."""

    def test_zero_eps_skip_is_exact(self, small_problem, monkeypatch):
        _, mask, data = small_problem
        config = run_config(max_iters=40, **EPS_SWITCHES_ON)
        original = solver._svt
        zero_results = []

        def recording(x, threshold, zero=None, **workspace):
            out = original(x, threshold, zero, **workspace)
            if zero is not None:
                zero_results.append(out is zero)
            return out

        monkeypatch.setattr(solver, "_svt", recording)
        skipping = rdledm_solve(data, mask, config)
        assert zero_results == [True] * 27 + [False] * 13
        assert np.count_nonzero(skipping.final_state.eps) > 0
        # A new zero stack each time: the loop cannot tell eps is zero, so
        # it computes every tau * eps term from iteration 2 on.
        monkeypatch.setattr(solver, "_svt", lambda x, threshold, zero=None, **_: original(x, threshold))
        computing = rdledm_solve(data, mask, config)
        assert skipping.reconstruction.tobytes() == computing.reconstruction.tobytes()
        assert skipping.final_state.eps.tobytes() == computing.final_state.eps.tobytes()
        assert skipping.re_series == computing.re_series

    def test_eps_svt_forms_no_gram_at_defaults(self, small_problem, monkeypatch):
        # the bound sqrt(2 * entries) * scale <= threshold returns the zero
        # stack right after the extremes, before any Gram tile is formed
        _, mask, data = small_problem
        original = solver._svt
        kernels = []

        def recording(x, threshold, zero=None, *, split, **workspace):
            def counting(kernel, count):
                if zero is not None:
                    kernels.append(kernel.__name__)
                split(kernel, count)

            return original(x, threshold, zero, split=counting, **workspace)

        monkeypatch.setattr(solver, "_svt", recording)
        report = rdledm_solve(data, mask, run_config(max_iters=40))
        assert kernels == ["extremes"] * 40
        assert not np.any(report.final_state.eps)

    def test_error_split_matches_naive_reimplementation(self, small_problem):
        # independently coded rdledm loop, plain numpy throughout; eps is
        # zero at first and nonzero later, so both kinds of iteration count
        _, mask, data = small_problem
        config = run_config(max_iters=40, **EPS_SWITCHES_ON)
        report = rdledm_solve(data, mask, config)

        def shrink(z, threshold):
            frames = z.shape[0]
            u, s, vh = np.linalg.svd(z.reshape(frames, -1).T, full_matrices=False)
            return ((u * np.maximum(s - threshold, 0.0)) @ vh).T.reshape(z.shape)

        m = mask.astype(np.float64)
        b = np.asarray(data)
        fid = config.t1 / (1 + config.t1)
        tv = config.t1 * config.lambda1 / (1 + config.t1)
        thr = config.t1 * config.lambda2 / (1 + config.t1)
        sig = config.t2 * config.lambda1
        tau = config.tau
        x = np.fft.ifft2(b * m, axes=(-2, -1), norm="ortho")
        xp = x.copy()
        eps = np.zeros_like(x)
        yp = np.zeros_like(x[:, 1:, :])
        yq = np.zeros_like(x[:, :, 1:])
        for _ in range(40):
            div = np.zeros_like(x)
            div[:, :-1, :] += yp
            div[:, 1:, :] -= yp
            div[:, :, :-1] += yq
            div[:, :, 1:] -= yq
            resid = np.fft.fft2(x, axes=(-2, -1), norm="ortho") * m - b
            grad = np.fft.ifft2(resid * m, axes=(-2, -1), norm="ortho")
            xn = shrink(x - fid * grad - tv * div + tau * (xp + eps), thr)
            xp = shrink(xn - tv * div + tau * eps, thr)
            eps = shrink(xn - xp, config.epsilon_threshold)
            look = 2.0 * xn + xp - x
            yp = yp + sig * (look[:, :-1, :] - look[:, 1:, :])
            yq = yq + sig * (look[:, :, :-1] - look[:, :, 1:])
            yp = yp / np.maximum(1.0, np.abs(yp))
            yq = yq / np.maximum(1.0, np.abs(yq))
            x = xn

        assert np.count_nonzero(eps) > 0
        assert np.abs(report.final_state.eps - eps).max() <= 1e-9 * np.abs(eps).max()
        assert np.allclose(report.reconstruction, x, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_x_bar_diverges_at_its_iteration(self, small_problem, monkeypatch,
                                                         solve, bad):
        # found by the first SVT's own scale reduction, not by a scan
        _, mask, data = small_problem
        original = solver._grad_adjoint
        calls = []

        def poisoned(p, q, out):
            original(p, q, out)
            calls.append(None)
            if len(calls) == 4:
                out[1, 2, 3] = bad
            return out

        monkeypatch.setattr(solver, "_grad_adjoint", poisoned)
        with pytest.raises(DivergenceError) as excinfo:
            solve(data, mask, run_config(max_iters=10, **EPS_SWITCHES_ON))
        assert type(excinfo.value) is DivergenceError
        assert excinfo.value.iteration == 4
        assert str(excinfo.value) == "solver state became non-finite at iteration 4"

    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_in_a_pool_block_diverges(self, tiled_problem, monkeypatch,
                                                 solve, bad):
        # on two workers the pool thread takes frames 2-4 of x_bar, and the
        # SVT's extremes of those frames find the poison in the last tile
        _, mask, data = tiled_problem
        monkeypatch.setattr(solver, "_worker_count", lambda *_: 2)
        original = solver._grad_adjoint
        pool_calls = []

        def poisoned(p, q, out):
            original(p, q, out)
            if len(out) == 3:
                pool_calls.append(None)
                if len(pool_calls) == 3:
                    out[-1, -1, -1] = bad
            return out

        monkeypatch.setattr(solver, "_grad_adjoint", poisoned)
        with pytest.raises(DivergenceError) as excinfo:
            solve(data, mask, run_config(max_iters=10, **EPS_SWITCHES_ON))
        assert excinfo.value.iteration == 3

    @pytest.mark.parametrize("solve,svts_per_iteration", [(rdledm_solve, 3),
                                                           (baseline_tvnn_solve, 1)])
    def test_non_finite_x_next_diverges_at_its_iteration(self, small_problem, monkeypatch,
                                                          solve, svts_per_iteration):
        # rdledm: found by the x' SVT; baseline: by the norm of x_next
        _, mask, data = small_problem
        original = solver._svt
        calls = []

        def poisoned(x, threshold, zero=None, **workspace):
            out = original(x, threshold, zero, **workspace)
            calls.append(None)
            if len(calls) == 3 * svts_per_iteration + 1:  # first SVT of iteration 4
                out = out.copy()
                out[0, 5, 5] = np.nan
            return out

        monkeypatch.setattr(solver, "_svt", poisoned)
        with pytest.raises(DivergenceError) as excinfo:
            solve(data, mask, run_config(max_iters=10, **EPS_SWITCHES_ON))
        assert excinfo.value.iteration == 4
        assert str(excinfo.value) == "solver state became non-finite at iteration 4"

    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    def test_finite_state_with_overflowing_norm_does_not_raise(self, small_problem, solve):
        _, mask, data = small_problem
        report = solve(1e160 * data, mask, run_config(max_iters=3))
        assert np.isfinite(report.reconstruction).all()
        assert solver._squared_norm(report.reconstruction) == math.inf
        # the relative error is taken on rescaled copies, not read as 0
        assert report.iterations == 3
        assert all(0.0 < re < math.inf for re in report.re_series)

    def test_tiny_state_does_not_stop_at_iteration_one(self, small_problem):
        # ||x||^2 underflows to 0: the SVT zeroes the first iterate (RE 1),
        # and the solve stops once two zero iterates follow (RE 0)
        _, mask, data = small_problem
        report = rdledm_solve(1e-170 * data, mask, run_config(max_iters=5, tol_re=1e-7))
        assert report.re_series == (1.0, 0.0)
        assert report.terminated_by == "tolerance"


    @pytest.mark.parametrize("scale", [1e-310, 1e-320])
    def test_subnormal_state_does_not_stop_at_iteration_one(self, small_problem, scale):
        # as above, with data whose largest part is subnormal
        _, mask, data = small_problem
        report = rdledm_solve(scale * data, mask, run_config(max_iters=5, tol_re=1e-7))
        assert report.re_series == (1.0, 0.0)
        assert report.terminated_by == "tolerance"


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
