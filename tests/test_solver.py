import ctypes
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdledm.errors import CallbackError, DimensionError, DivergenceError
from rdledm.experiment import load_experiment_config
from rdledm.phantom import PRESET_SIZES, PhantomSpec, generate_phantom, phantom_preset
from rdledm.sampling import make_mask, measure, zero_fill
from rdledm.metrics import psnr, rmse
from rdledm import _threads, solver
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
    # 100 x 100 = 10000 pixels: SVT Grams from two whole 4096-column tiles
    # and a partial third; 5 frames, so 1, 2 and 3 workers cut frames and
    # tiles differently. With EPS_SWITCHES_ON eps is zero in iterations
    # 1-17 of 40 and nonzero from iteration 18 on.
    truth = generate_phantom(PhantomSpec(rows=100, cols=100, frames=5))
    mask = make_mask("radial", 5, 100, 100, 0.4, seed=1)
    data = measure(truth, mask, 0.02, seed=2)
    return truth, mask, data


@pytest.fixture(scope="module")
def tiled_cartesian_problem():
    # A cartesian mask on 5 frames of 48 x 48: the fidelity operator runs
    # on one frame block of 5 or on blocks of 1, 2 and 2.
    truth = generate_phantom(PhantomSpec(rows=48, cols=48, frames=5))
    mask = make_mask("cartesian", 5, 48, 48, 0.4, seed=1)
    data = measure(truth, mask, 0.02, seed=2)
    return truth, mask, data


def run_config(**overrides):
    base = dict(max_iters=40, tol_re=1e-300)
    base.update(overrides)
    return SolverConfig(**base)


def assert_worker_counts_agree(workers, solve, data, mask, overrides):
    # every state byte and the RE series on 1 and on 3 workers
    results = []
    for count in (1, 3):
        workers(count)
        report = solve(data, mask, run_config(max_iters=40, **overrides))
        state = report.final_state
        results.append((report.reconstruction.tobytes(), state.x_prime.tobytes(),
                        state.eps.tobytes(), state.y.p.tobytes(),
                        state.y.q.tobytes(), report.re_series))
    assert results[0] == results[1]


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

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "tau", "t1", "t2", "tol_re",
                                       "epsilon_threshold"])
    @pytest.mark.parametrize("value", [True, np.True_, "x", 1j])
    def test_rejects_non_real(self, field, value):
        # a ValueError that names the field, never a TypeError from a
        # comparison, and no bool read as 1.0 or 0.0
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "tau", "t1", "t2", "tol_re"])
    def test_rejects_none(self, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: None})

    @pytest.mark.parametrize("value", [2.5, 10.0, True, "10", None])
    def test_rejects_non_integer_max_iters(self, value):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=value)

    def test_accepts_integer_max_iters_and_infinite_epsilon_threshold(self):
        assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
        assert SolverConfig(epsilon_threshold=math.inf).resolved_epsilon_threshold() == math.inf

    def test_accepts_ints_and_numpy_reals(self):
        config = SolverConfig(lambda1=1, t1=np.float32(0.5), epsilon_threshold=np.int64(2))
        assert (config.lambda1, config.t1, config.epsilon_threshold) == (1, 0.5, 2)

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


    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", [-600, 600, 1000])
    def test_power_of_two_scale_is_exact(self, seed, k):
        # relative_error(2**k b, 2**k a) == relative_error(b, a), bit for
        # bit, where the squared norms of the scaled stacks leave range
        gen = np.random.default_rng(seed)
        a = random_sequence(gen, 2, 3, 4)
        b = a + random_sequence(gen, 2, 3, 4, scale=0.1)
        scaled = [np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k) for z in (b, a)]
        assert relative_error(*scaled) == relative_error(b, a)


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

    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    @pytest.mark.parametrize("shape", [(2, 1, 4), (2, 4, 1)])
    def test_frames_below_2x2_rejected(self, solve, shape):
        with pytest.raises(DimensionError, match="at least 2x2"):
            solve(np.ones(shape, dtype=complex), np.ones(shape, dtype=np.uint8),
                  run_config(max_iters=1))

    def test_runaway_coupling_raises_divergence(self, small_problem):
        _, mask, data = small_problem
        config = run_config(max_iters=50, tau=1e150, epsilon_threshold=0.0)
        with pytest.raises(DivergenceError) as excinfo:
            rdledm_solve(data, mask, config)
        assert excinfo.value.iteration is not None


class TestFrameBlocks:
    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    def test_block_split_does_not_change_results(self, small_problem, workers, solve):
        # 4 frames: one block; blocks of 2 and 2; blocks of 1, 1 and 2
        truth, mask, data = small_problem
        reports = []
        for count in (1, 2, 3):
            workers(count)
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
    def test_block_split_is_byte_identical(self, small_problem, workers, solve, overrides):
        # both block kernels finish sums in place; signed zeros must not move
        _, mask, data = small_problem
        results = []
        for count in (1, 2, 3):
            workers(count)
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
    def test_several_tiles_are_byte_identical(self, tiled_problem, workers, solve,
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
            for count in (1, 2, 3):
                workers(count)
                report = solve(data, mask, run_config(max_iters=40, **overrides))
                state = report.final_state
                assert state.y.p.shape == (5, 99, 100) and state.y.q.shape == (5, 100, 99)
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
    def test_dense_path_is_byte_identical(self, tiled_cartesian_problem, workers,
                                          solve, overrides):
        # one dense row product per frame, whichever block holds the frame
        _, mask, data = tiled_cartesian_problem
        assert solver._dense_fidelity(mask)
        assert_worker_counts_agree(workers, solve, data, mask, overrides)

    def test_parts_are_cut_once_per_count(self, tiled_problem, monkeypatch, workers):
        # the frame count and the SVT's tile count, each cut the first
        # time it is split, however many kernels a solve then splits
        _, mask, data = tiled_problem
        workers(2)
        cut, counts = _threads._FrameBlocks._cut, []

        def counting(self, count):
            counts.append(count)
            return cut(self, count)

        monkeypatch.setattr(_threads._FrameBlocks, "_cut", counting)
        rdledm_solve(data, mask, run_config(max_iters=5, **EPS_SWITCHES_ON))
        assert sorted(counts) == [3, 5]

    def test_worker_rule(self, monkeypatch):
        # a thread per block only from 2**17 voxels per worker on
        monkeypatch.setattr(_threads.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert _threads._worker_count(8, 64, 64) == 1
        assert _threads._worker_count(20, 128, 128) == 2
        assert _threads._worker_count(8, 128, 128) == 1
        assert _threads._worker_count(8, 192, 192) == 2
        assert _threads._worker_count(1, 512, 512) == 1
        with _threads._FrameBlocks((8, 64, 64)) as blocks:
            assert blocks._pool is None

    @pytest.mark.parametrize("solve", [rdledm_solve, baseline_tvnn_solve])
    @pytest.mark.parametrize("problem,count", [("small_problem", 1),
                                               ("tiled_problem", 1),
                                               ("tiled_problem", 2)])
    def test_first_re_is_the_public_relative_error(self, request, workers, solve,
                                                   problem, count):
        # the solve's first ||x||^2 is summed per frame like every later one
        _, mask, data = request.getfixturevalue(problem)
        workers(count)
        report = solve(data, mask, run_config(max_iters=1))
        expected = relative_error(report.reconstruction, zero_fill(data, mask))
        assert report.re_series == (expected,)

    def test_one_worker_imports_no_pool(self, tmp_path):
        # a solve small enough for one worker, and a CLI chain at 8x64x64
        # (phantom, the three masks, measure, a reconstruction with PGM
        # export, export), leave concurrent.futures unloaded, and no solve
        # loads scipy (installed, but not declared)
        code = (
            "import contextlib, io, json, pathlib, sys, numpy as np\n"
            "from rdledm.cli import main\n"
            "from rdledm.solver import SolverConfig, baseline_tvnn_solve\n"
            "data = np.ones((4, 16, 16), complex)\n"
            "baseline_tvnn_solve(data, np.ones((4, 16, 16), bool), SolverConfig(max_iters=3))\n"
            "work = pathlib.Path(sys.argv[1])\n"
            "shape = ['--rows', '64', '--cols', '64', '--frames', '8']\n"
            "config = {'phantom': {'preset': 'cine-like', 'size': 64, 'frames': 8},\n"
            "          'mask': {'pattern': 'radial', 'ratio': 0.25, 'seed': 1},\n"
            "          'noise': {'sigma': 0.05, 'seed': 2},\n"
            "          'solver': {'method': 'rdledm', 'max_iters': 3},\n"
            "          'output': {'directory': str(work / 'run'), 'export_pgm': True}}\n"
            "(work / 'config.json').write_text(json.dumps(config))\n"
            "argvs = [['phantom', '--preset', 'cine-like', '--size', '64', '--frames', '8',\n"
            "          '--out', str(work / 't.dseq')]]\n"
            "argvs += [['mask', '--pattern', p, *shape, '--ratio', '0.25',\n"
            "           '--out', str(work / (p + '.mask'))]\n"
            "          for p in ('cartesian', 'radial', 'random2d')]\n"
            "argvs += [['measure', '--seq', str(work / 't.dseq'), '--mask',\n"
            "           str(work / 'radial.mask'), '--sigma', '0.05', '--out', str(work / 'k.dseq')],\n"
            "          ['reconstruct', '--config', str(work / 'config.json')],\n"
            "          ['export', '--seq', str(work / 'run' / 'recon.dseq'),\n"
            "           '--out-dir', str(work / 'export')]]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert [main(argv) for argv in argvs] == [0] * len(argvs)\n"
            "print('concurrent.futures' in sys.modules, 'scipy' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                                capture_output=True, text=True, timeout=120, check=True,
                                env={**os.environ,
                                     "PYTHONPATH": str(Path(solver.__file__).parents[1])})
        assert result.stdout.strip() == "False False"


def _flipped(mask):
    # mask with one entry of one frame flipped
    mask = mask.copy()
    mask[2, 0, 5] ^= 1
    return mask


FIDELITY_CASES = {
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


ROW_CONSTANT_CASES = ("cartesian", "static-cartesian", "all-zero", "all-one")


class TestFftAxes:
    """The fidelity operator: dense row product or 2-D DFT pair."""

    @pytest.mark.parametrize("case", list(FIDELITY_CASES))
    def test_operator_table(self, case):
        # row-constant at or under the crossover: dense; above it, and any
        # other mask at any size: the 2-D pair. Every size the CLI's
        # presets make lies at or under the crossover.
        dense = case in ROW_CONSTANT_CASES
        rows = solver._DENSE_ROWS
        shapes = [((4, rows, 12), dense), ((4, rows + 1, 12), False)]
        shapes += [((4, size, size), dense) for size in PRESET_SIZES]
        for shape, expected in shapes:
            assert solver._dense_fidelity(FIDELITY_CASES[case](shape)) == expected, shape

    @pytest.mark.parametrize("solve,overrides", [
        (rdledm_solve, {"tau": 0.02, "epsilon_threshold": 0.05}),
        (baseline_tvnn_solve, {}),
    ])
    def test_dense_path_matches_2d_pair(self, small_problem, monkeypatch, workers, solve,
                                        overrides):
        # The dense row product and the 2-D pair give one operator, so the
        # paths differ by round-off only (at most 2.1e-13 relative, in the
        # RE series). Each kernel also checks its data operand in each of
        # its 40 iterations, long after the loop has started to reuse its
        # buffers (one worker, so one block: the whole stack): the dense
        # kernel is handed step * F^H M b, the 2-D pair the solve's k-space
        # data b.
        truth, mask, data = small_problem
        config = run_config(max_iters=40, **overrides)
        step = config.t1 / (1.0 + config.t1)
        zero_filled = zero_fill(data, mask)
        assert solver._dense_fidelity(mask)
        workers(1)
        handed = []

        def spying(kernel, image):
            def spy(x, p, q, transport, out, operator, shift, *rest, **params):
                handed.append(np.array_equal(shift, image))
                kernel(x, p, q, transport, out, operator, shift, *rest, **params)
            return spy

        monkeypatch.setattr(solver, "_dense_primal_block",
                            spying(solver._dense_primal_block, step * zero_filled))
        monkeypatch.setattr(solver, "_primal_block", spying(solver._primal_block, data))
        reports = []
        for dense in (True, False):
            monkeypatch.setattr(solver, "_dense_fidelity", lambda m, d=dense: d)
            reports.append(solve(data, mask, config, reference=truth))
            assert handed == [True] * 40
            handed.clear()
        rel = 1e-12

        def stacks(report):
            state = report.final_state
            return {"x": state.x, "x_prime": state.x_prime, "eps": state.eps,
                    "y.p": state.y.p, "y.q": state.y.q}

        dense, both = reports
        for (name, a), b in zip(stacks(dense).items(), stacks(both).values()):
            assert np.abs(a - b).max() <= rel * np.abs(b).max(), name
        for series in ("re_series", "psnr_series", "rmse_series"):
            np.testing.assert_allclose(getattr(dense, series), getattr(both, series),
                                       rtol=rel, atol=0, err_msg=series)
        if overrides:
            assert np.count_nonzero(both.final_state.eps) > 0


class TestWorkingSet:
    # tracemalloc peak of a whole solve (set-up, loop and final state), in
    # complex128 stacks of the problem's shape. The data and the mask are
    # made before tracing starts. Every solve holds x, p, q and two loop
    # buffers (x_bar, which ends as the lookahead, and the spare iterate,
    # which the baseline's transport shares); the dense path adds its row
    # operator and step * F^H M b; the error split adds x' and the
    # transport, and eps only once its SVT first returns a nonzero eps (a
    # still-zero eps at the end is written into the spare iterate). The
    # projections take their moduli in the dead lookahead. What is left is
    # NumPy's 128 KB cast buffer for the uint8 mask and the SVT's partial
    # Grams. Each bound is the measured peak plus a quarter stack. A
    # case's overrides may set max_iters (2 otherwise).
    CASES = {
        "radial-baseline": ("radial", (20, 128, 128), baseline_tvnn_solve, {}, 5.28),
        "radial-rdledm": ("radial", (20, 128, 128), rdledm_solve, {}, 7.28),
        "cartesian-baseline": ("cartesian", (8, 64, 64), baseline_tvnn_solve, {}, 7.51),
        "cartesian-rdledm": ("cartesian", (8, 64, 64), rdledm_solve, {}, 9.28),
        # the projections rescale in both iterations: the factors are
        # formed in the moduli buffer too
        "radial-baseline-rescaled": ("radial", (20, 128, 128), baseline_tvnn_solve,
                                     {"lambda1": 50.0}, 5.28),
        # eps turns nonzero within 40 iterations and then holds a stack
        "cartesian-rdledm-eps": ("cartesian", (8, 64, 64), rdledm_solve,
                                 {**EPS_SWITCHES_ON, "max_iters": 40}, 10.31),
    }

    @pytest.fixture(scope="class")
    def problems(self):
        made = {}
        for pattern, shape in (("radial", (20, 128, 128)), ("cartesian", (8, 64, 64))):
            frames, rows, cols = shape
            truth = generate_phantom(PhantomSpec(rows=rows, cols=cols, frames=frames))
            mask = make_mask(pattern, *shape, 0.25, seed=1)
            made[pattern] = (mask, measure(truth, mask, 0.05, seed=2))
        return made

    # On two workers the bound of one worker must hold too: a block of the
    # dual kernel takes its moduli in its own part of the lookahead.
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_peak_in_stacks(self, workers, problems, case, count):
        pattern, shape, solve, overrides, stacks = self.CASES[case]
        mask, data = problems[pattern]
        assert solver._dense_fidelity(mask) == (pattern == "cartesian")
        workers(count)
        config = run_config(**{"max_iters": 2, **overrides})
        # Run once untraced: the thread-pool modules, imported by the first
        # solve on two workers, are not part of a solve's working set.
        solve(data, mask, config)
        tracemalloc.start()
        try:
            report = solve(data, mask, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        eps_on = overrides.get("epsilon_threshold") is not None
        assert (np.count_nonzero(report.final_state.eps) > 0) == eps_on
        assert peak <= stacks * np.empty(shape, dtype=np.complex128).nbytes

    def test_rescaled_case_rescales_in_both_iterations(self, monkeypatch, workers, problems):
        mask, data = problems["radial"]
        workers(1)
        original = solver._shrink_to_unit_disc
        outside = []

        def recording(z, moduli=None):
            outside.append(bool(np.abs(z).max() > 1.0))
            original(z, moduli)

        monkeypatch.setattr(solver, "_shrink_to_unit_disc", recording)
        baseline_tvnn_solve(data, mask, run_config(max_iters=2, lambda1=50.0))
        # p and q in each of the two iterations
        assert outside == [True] * 4


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
        monkeypatch.setattr(_threads, "_BLAS_THREAD_CALLS", (("no_such_get", "no_such_set"),))
        assert _threads._blas_thread_calls() is None
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
        monkeypatch.setattr(_threads, "_BLAS_THREAD_CALLS",
                            _threads._BLAS_THREAD_CALLS + (("no_such_get", "no_such_set"),))
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
        # ||C||_F <= threshold returns the zero stack right after the
        # squared norms, before any Gram tile is formed
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
        assert kernels == ["squared_norms"] * 40
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
        # found by the first SVT's own norms and extremes, not by a scan
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
    def test_non_finite_in_a_pool_block_diverges(self, tiled_problem, monkeypatch, workers,
                                                 solve, bad):
        # on two workers the pool thread takes frames 2-4 of x_bar, and the
        # SVT's norms and extremes of those frames find the poison in the
        # last tile
        _, mask, data = tiled_problem
        workers(2)
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

    @pytest.mark.parametrize("problem", ["tiled_problem", "tiled_cartesian_problem"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_final_state(self, request, workers, problem, count):
        # x' is the zero-filled image and eps zero, on both fidelity
        # paths; the solve, which reads data and mask in every iteration
        # on the 2-D pair, leaves both as they were.
        _, mask, data = request.getfixturevalue(problem)
        assert solver._dense_fidelity(mask) == (problem == "tiled_cartesian_problem")
        data_bytes, mask_bytes = data.tobytes(), mask.tobytes()
        workers(count)
        state = baseline_tvnn_solve(data, mask, run_config(max_iters=10)).final_state
        assert state.x_prime.tobytes() == zero_fill(data, mask).tobytes()
        assert state.eps.shape == data.shape
        assert state.eps.tobytes() == np.zeros(data.shape, dtype=np.complex128).tobytes()
        assert (data.tobytes(), mask.tobytes()) == (data_bytes, mask_bytes)
