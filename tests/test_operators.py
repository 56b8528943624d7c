import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdledm.errors import DimensionError
from rdledm import operators
from rdledm.operators import (
    DualField,
    _dft2,
    _idft2,
    _svt,
    dft2_adjoint,
    dft2_forward,
    grad_adjoint,
    grad_forward,
    nuclear_norm,
    project_linf_ball,
    svt,
    tv_seminorm,
)
from rdledm.sampling import adjoint_op, forward_op, make_mask
from rdledm.solver import _grad_adjoint
from rdledm.sequence import frobenius_norm, inner_product

from conftest import random_sequence


def dual_inner(a: DualField, b: DualField) -> complex:
    return complex(np.vdot(a.p, b.p) + np.vdot(a.q, b.q))


def signed_zero_stack(gen, shape):
    # Parts drawn from {+-0, +-1, +-2}, so that sums cancel to exact zeros
    # and the sign of every zero in a result is put to the test.
    parts = gen.choice([-0.0, 0.0, 1.0, -1.0, 2.0, -2.0], size=(*shape, 2))
    return parts.view(np.complex128).reshape(shape)


class TestFourier:
    def test_buffer_kernels_match_numpy_fft(self, rng):
        # the solve loop writes each frame block into a slice of one buffer
        x = random_sequence(rng, 5, 12, 10)
        forward = np.fft.fft2(x, norm="ortho")
        inverse = np.fft.ifft2(x, norm="ortho")
        k = np.empty_like(x)
        back = np.empty_like(x)
        for block in (slice(0, 2), slice(2, 5)):
            _dft2(x[block], out=k[block])
            _idft2(x[block], out=back[block])
        assert np.array_equal(k, forward)
        assert np.array_equal(back, inverse)
        assert np.array_equal(_dft2(x), forward)
        assert np.array_equal(_idft2(x), inverse)

    def test_round_trip(self, rng):
        x = random_sequence(rng, 2, 5, 7)
        assert np.allclose(dft2_adjoint(dft2_forward(x)), x, atol=1e-12)

    def test_parseval(self, rng):
        x = random_sequence(rng, 3, 6, 4)
        assert frobenius_norm(dft2_forward(x)) == pytest.approx(
            frobenius_norm(x), rel=1e-12
        )

    def test_adjoint_identity(self, rng):
        x = random_sequence(rng, 2, 4, 4)
        y = random_sequence(rng, 2, 4, 4)
        lhs = inner_product(dft2_forward(x), y)
        rhs = inner_product(x, dft2_adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_constant_frame_concentrates_at_dc(self):
        x = np.full((1, 4, 8), 2.0 + 0j)
        k = dft2_forward(x)
        assert k[0, 0, 0] == pytest.approx(2.0 * np.sqrt(32), rel=1e-12)
        assert np.abs(k).sum() == pytest.approx(abs(k[0, 0, 0]), rel=1e-12)


class TestDifferences:
    def test_hand_values(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=complex)
        p, q = grad_forward(x)
        assert np.array_equal(p, np.array([[[-2.0, -2.0]]]))
        assert np.array_equal(q, np.array([[[-1.0], [-1.0]]]))

    def test_rejects_thin_frames(self):
        with pytest.raises(DimensionError):
            grad_forward(np.zeros((1, 1, 5), dtype=complex))

    def test_adjoint_hand_values(self):
        p = np.array([[[1.0, 2.0]]], dtype=complex)
        q = np.array([[[3.0], [4.0]]], dtype=complex)
        out = grad_adjoint(DualField(p, q))
        assert np.array_equal(out, np.array([[[4.0, -1.0], [3.0, -6.0]]]))

    def test_adjoint_identity(self, rng):
        x = random_sequence(rng, 2, 5, 6)
        y = DualField(
            random_sequence(rng, 2, 4, 6), random_sequence(rng, 2, 5, 5)
        )
        lhs = dual_inner(grad_forward(x), y)
        rhs = inner_product(x, grad_adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_adjoint_identity_property(self, rows, cols, seed):
        gen = np.random.default_rng(seed)
        x = random_sequence(gen, 2, rows, cols)
        y = DualField(
            random_sequence(gen, 2, rows - 1, cols),
            random_sequence(gen, 2, rows, cols - 1),
        )
        lhs = dual_inner(grad_forward(x), y)
        rhs = inner_product(x, grad_adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_adjoint_rejects_mismatched_components(self, rng):
        y = DualField(random_sequence(rng, 1, 3, 4), random_sequence(rng, 1, 3, 4))
        with pytest.raises(DimensionError):
            grad_adjoint(y)

    def test_dual_rejects_components_that_are_not_3d(self, rng):
        y = DualField(random_sequence(rng, 1, 2, 3)[0], random_sequence(rng, 1, 3, 2))
        for call in (grad_adjoint, project_linf_ball):
            with pytest.raises(DimensionError, match="3-d"):
                call(y)

    @pytest.mark.parametrize("component", ["p", "q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_dual_rejects_non_finite_components(self, rng, component, bad):
        y = DualField(random_sequence(rng, 1, 2, 3), random_sequence(rng, 1, 3, 2))
        getattr(y, component)[0, 1, 0] = bad
        for call in (grad_adjoint, project_linf_ball):
            with pytest.raises(DimensionError, match="NaN or Inf"):
                call(y)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (5, 6), (1, 4), (4, 1)])
    def test_adjoint_bytes_match_zero_filled_accumulation(self, rows, cols):
        # every bit, signed zeros included, is that of fill(0) and four
        # slice updates
        gen = np.random.default_rng(rows * 10 + cols)
        p = signed_zero_stack(gen, (3, rows - 1, cols))
        q = signed_zero_stack(gen, (3, rows, cols - 1))
        expected = np.zeros((3, rows, cols), dtype=complex)
        expected[:, :-1, :] += p
        expected[:, 1:, :] -= p
        expected[:, :, :-1] += q
        expected[:, :, 1:] -= q
        assert grad_adjoint(DualField(p, q)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("signed_zeros", [False, True])
    @pytest.mark.parametrize("rows,cols", [(2, 2), (5, 6), (3, 1031)])
    def test_padded_layout_matches_public_layout(self, rows, cols, signed_zeros):
        # the solve loop keeps p and q as (T, m, n), with a zero last row
        # and a zero last column; the kernel then runs on the flattened stacks
        gen = np.random.default_rng(rows * 10 + cols)
        if signed_zeros:
            draw = signed_zero_stack
        else:
            def draw(gen, shape):
                return random_sequence(gen, *shape)
        p = draw(gen, (3, rows - 1, cols))
        q = draw(gen, (3, rows, cols - 1))
        padded_p = np.zeros((3, rows, cols), dtype=complex)
        padded_p[:, :-1, :] = p
        padded_q = np.zeros((3, rows, cols), dtype=complex)
        padded_q[:, :, :-1] = q
        out = np.full((3, rows, cols), np.nan + 1j)
        assert _grad_adjoint(padded_p, padded_q, out) is out
        expected = grad_adjoint(DualField(p, q))
        if signed_zeros:
            # only the signs of zeros may differ
            assert np.array_equal(out, expected)
        else:
            # the same operations in the same order: the same bits
            assert out.tobytes() == expected.tobytes()

    def test_tv_hand_value(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=complex)
        assert tv_seminorm(x) == pytest.approx(6.0)

    def test_tv_vanishes_on_constants(self):
        assert tv_seminorm(np.full((2, 4, 4), 3.0 + 1j)) == 0.0


class TestNuclearNorm:
    def test_diagonal_casorati(self):
        # frames (3, 0) and (0, 1) stack to the Casorati matrix diag(3, 1)
        x = np.array([[[3.0], [0.0]], [[0.0], [1.0]]], dtype=complex)
        assert nuclear_norm(x) == pytest.approx(4.0, rel=1e-12)

    def test_rank_one_stack(self, rng):
        frame = random_sequence(rng, 1, 4, 4)
        weights = np.array([1.0, -2.0, 0.5])
        x = weights[:, None, None] * frame
        oracle = frobenius_norm(frame) * np.linalg.norm(weights)
        assert nuclear_norm(x) == pytest.approx(oracle, rel=1e-10)

    def test_dominates_frobenius(self, rng):
        x = random_sequence(rng, 3, 5, 5)
        assert nuclear_norm(x) >= frobenius_norm(x) - 1e-12


class TestSvt:
    def test_diagonal_hand_case(self):
        x = np.array([[[3.0], [0.0]], [[0.0], [1.0]]], dtype=complex)
        out = svt(x, 1.0)
        expected = np.array([[[2.0], [0.0]], [[0.0], [0.0]]], dtype=complex)
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_threshold_is_identity(self, rng):
        x = random_sequence(rng, 3, 6, 6)
        assert np.allclose(svt(x, 0.0), x, atol=1e-10)

    def test_infinite_threshold_zeroes(self, rng):
        x = random_sequence(rng, 2, 4, 4)
        assert np.array_equal(svt(x, np.inf), np.zeros_like(x))

    def test_threshold_above_spectrum_zeroes(self, rng):
        # ||C||_F exceeds the threshold, no singular value does: the
        # result is the caller's zero stack, with no product formed
        x = random_sequence(rng, 2, 4, 4)
        top = np.linalg.svd(x.reshape(2, -1).T, compute_uv=False)[0]
        assert frobenius_norm(x) > top * 1.01
        zero = np.zeros_like(x)
        assert _svt(x, top * 1.01, zero) is zero
        out = svt(x, top * 1.01)
        assert out.tobytes() == zero.tobytes()

    @pytest.mark.parametrize("bad", [-1.0, -1e-9, float("nan")])
    def test_rejects_bad_threshold(self, rng, bad):
        with pytest.raises(ValueError):
            svt(random_sequence(rng, 1, 2, 2), bad)

    def test_shrinks_nuclear_norm_by_threshold(self, rng):
        x = random_sequence(rng, 3, 8, 8)
        t = 0.7
        before = np.linalg.svd(x.reshape(3, -1).T, compute_uv=False)
        expected = np.maximum(before - t, 0.0).sum()
        assert nuclear_norm(svt(x, t)) == pytest.approx(expected, rel=1e-10)

    def test_prox_optimality_spot_check(self, rng):
        z = random_sequence(rng, 3, 6, 6)
        t = 0.5
        x = svt(z, t)

        def objective(v):
            return 0.5 * frobenius_norm(v - z) ** 2 + t * nuclear_norm(v)

        base = objective(x)
        for _ in range(5):
            delta = 1e-3 * random_sequence(rng, 3, 6, 6)
            assert objective(x + delta) >= base - 1e-12


def svd_svt(x, threshold):
    """SVT through a full SVD of the Casorati matrix: the reference."""
    frames = x.shape[0]
    u, s, vh = np.linalg.svd(x.reshape(frames, -1).T, full_matrices=False)
    return ((u * np.maximum(s - threshold, 0.0)) @ vh).T.reshape(x.shape)


def top_singular_value(x):
    return np.linalg.svd(x.reshape(x.shape[0], -1).T, compute_uv=False)[0]


class TestSvtAgainstSvd:
    # svt works on the T x T Gram matrix; these pin it to the SVD form.
    # The tolerance is relative to the largest singular value, well above
    # float64 rounding (~1e-16) and well below any wrong singular pair.

    @pytest.mark.parametrize("frames", [1, 2, 8, 20, 60])
    def test_matches_svd(self, rng, frames):
        x = random_sequence(rng, frames, 9, 8)
        s = np.linalg.svd(x.reshape(frames, -1).T, compute_uv=False)
        threshold = 0.5 * float(np.median(s))
        out = svt(x, threshold)
        assert np.abs(out - svd_svt(x, threshold)).max() <= 1e-10 * s[0]
        assert np.count_nonzero(out) > 0

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 2.0])
    def test_rank_deficient(self, rng, threshold):
        basis = random_sequence(rng, 2, 6, 7)
        weights = rng.standard_normal((8, 2))
        x = np.einsum("tk,kij->tij", weights, basis)  # rank 2, 8 frames
        out = svt(x, threshold)
        assert np.isfinite(out).all()
        assert np.abs(out - svd_svt(x, threshold)).max() <= 1e-10 * top_singular_value(x)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_all_zero_stack(self, threshold):
        x = np.zeros((4, 3, 5), dtype=complex)
        out = svt(x, threshold)
        assert np.array_equal(out, x)
        assert out.shape == x.shape and out.dtype == np.complex128

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e200, 1e-200])
    def test_extreme_scales(self, rng, scale):
        x = random_sequence(rng, 8, 6, 6)
        threshold = 0.5 * float(np.median(
            np.linalg.svd(x.reshape(8, -1).T, compute_uv=False)))
        out = svt(scale * x, scale * threshold)
        assert np.isfinite(out).all()
        expected = scale * svd_svt(x, threshold)
        assert np.abs(out - expected).max() <= 1e-10 * scale * top_singular_value(x)

    @pytest.mark.parametrize("frames", [2, 3, 8])
    def test_exactly_zero_below_frobenius_norm(self, rng, frames):
        x = random_sequence(rng, frames, 5, 4)
        norm = frobenius_norm(x)
        for threshold in (norm, 1.5 * norm):
            out = svt(x, threshold)
            assert not np.any(out)
            assert np.array_equal(out, svd_svt(x, threshold))


class TestSvtTiles:
    # 5 frames of 100 x 100: the Gram matrix is summed from two whole
    # tiles of pixel columns and a partial third.
    SHAPE = (5, 100, 100)

    def test_shape_spans_several_tiles(self):
        pixels = self.SHAPE[1] * self.SHAPE[2]
        assert pixels > 2 * operators._GRAM_TILE and pixels % operators._GRAM_TILE

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
    def test_matches_svd(self, rng, scale):
        x = random_sequence(rng, *self.SHAPE)
        top = top_singular_value(x)
        threshold = 0.5 * float(np.median(
            np.linalg.svd(x.reshape(self.SHAPE[0], -1).T, compute_uv=False)))
        out = svt(scale * x, scale * threshold)
        assert np.isfinite(out).all() and np.count_nonzero(out) > 0
        expected = scale * svd_svt(x, threshold)
        assert np.abs(out - expected).max() <= 1e-10 * scale * top

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_grouping_does_not_change_bits(self, rng, workers):
        # tiles and frames handed out in contiguous groups, as a pool would
        def split(kernel, count):
            edges = [count * w // workers for w in range(workers + 1)]
            for lo, hi in zip(edges, edges[1:]):
                if hi > lo:
                    kernel(slice(lo, hi))

        x = random_sequence(rng, *self.SHAPE)
        threshold = 0.5 * top_singular_value(x)
        out = np.full(self.SHAPE, np.nan + 0j)
        assert _svt(x, threshold, out=out, split=split) is out
        assert out.tobytes() == _svt(x, threshold).tobytes()

    def test_zero_shortcuts(self, rng):
        # At or above ||C||_F only the squared norms are taken; below it the
        # Gram is formed, and its eigenvalues decide.
        x = random_sequence(rng, *self.SHAPE)
        norms = np.empty(self.SHAPE[0])
        operators._frame_squared_norms(x, norms)
        norm = math.sqrt(sum(norms.tolist()))
        assert norm == pytest.approx(frobenius_norm(x), rel=1e-14)
        assert top_singular_value(x) < 0.99 * norm
        zero = np.zeros_like(x)
        for threshold, kernels in ((norm, ["squared_norms"]),
                                   (norm * 1.01, ["squared_norms"]),
                                   (norm * 0.99, ["squared_norms", "gram"])):
            called = []

            def split(kernel, count):
                called.append(kernel.__name__)
                kernel(slice(0, count))

            assert _svt(x, threshold, zero, split=split) is zero
            assert called == kernels
            out = np.full_like(x, np.nan)
            assert _svt(x, threshold, out=out) is out
            assert not np.any(out)

    @pytest.mark.parametrize("scale,kernels", [
        (1.0, ["squared_norms", "gram", "rebuild"]),
        (1e160, ["squared_norms", "squared_norms", "gram", "rebuild"]),
        (1e-160, ["squared_norms", "squared_norms", "gram", "rebuild"]),
    ])
    def test_divides_only_where_squares_leave_range(self, rng, scale, kernels):
        # Squares of parts near 1e160 overflow and those near 1e-160
        # underflow: those stacks are rescaled by a power of two and take
        # the norms once more, in range. Neither path warns, nor does the
        # public svt.
        x = scale * random_sequence(rng, *self.SHAPE)
        threshold = 0.5 * scale * top_singular_value(x / scale)
        called = []

        def split(kernel, count):
            called.append(kernel.__name__)
            kernel(slice(0, count))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _svt(x, threshold, split=split)
            assert svt(x, threshold).tobytes() == out.tobytes()
        assert called == kernels
        assert np.isfinite(out).all() and np.count_nonzero(out) > 0


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [-600, 600, 1000])
    def test_power_of_two_scale_is_exact(self, seed, k):
        # svt(2**k x, 2**k t) == 2**k svt(x, t), bit for bit: the rescale
        # into range and back is by powers of two, and every part stays
        # normal at these exponents.
        x = random_sequence(np.random.default_rng(seed), 4, 5, 6)
        threshold = 0.5 * top_singular_value(x)
        out = svt(np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k), math.ldexp(threshold, k))
        expected = svt(x, threshold)
        assert np.count_nonzero(expected) > 0
        assert out.tobytes() == (np.ldexp(expected.real, k)
                                 + 1j * np.ldexp(expected.imag, k)).tobytes()


class TestDualProjection:
    def test_small_entries_pass_through(self, rng):
        y = DualField(
            0.5 * random_sequence(rng, 1, 2, 3) / 10,
            0.5 * random_sequence(rng, 1, 3, 2) / 10,
        )
        out = project_linf_ball(y)
        assert np.array_equal(out.p, y.p)
        assert np.array_equal(out.q, y.q)

    def test_large_entries_keep_phase(self):
        p = np.array([[[3.0 + 4.0j, 0.1]]])
        q = np.array([[[-2.0], [0.5j]]])
        out = project_linf_ball(DualField(p, q))
        assert out.p[0, 0, 0] == pytest.approx(0.6 + 0.8j, rel=1e-12)
        assert out.p[0, 0, 1] == pytest.approx(0.1)
        assert out.q[0, 0, 0] == pytest.approx(-1.0)
        assert out.q[0, 1, 0] == pytest.approx(0.5j)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_projection_bounds_and_idempotence(self, seed, scale):
        gen = np.random.default_rng(seed)
        y = DualField(
            scale * random_sequence(gen, 2, 3, 4),
            scale * random_sequence(gen, 2, 4, 3),
        )
        out = project_linf_ball(y)
        assert np.abs(out.p).max() <= 1.0 + 1e-12
        assert np.abs(out.q).max() <= 1.0 + 1e-12
        twice = project_linf_ball(out)
        assert np.allclose(twice.p, out.p, atol=1e-12)
        assert np.allclose(twice.q, out.q, atol=1e-12)


def broadcast_shrink(z):
    # The projection as first written: one broadcast multiply of both
    # parts by 1 / max(1, |z|), on every entry.
    z = z.copy()
    scale = np.abs(z)
    np.maximum(scale, 1.0, out=scale)
    np.divide(1.0, scale, out=scale)
    parts = z.view(np.float64).reshape(*z.shape, 2)
    parts *= scale[..., np.newaxis]
    return z


class TestDualProjectionBits:
    """Skip rule and strided rescale against the broadcast formula."""

    ULP_OUT = np.nextafter(1.0, 2.0)

    def cases(self):
        gen = np.random.default_rng(7)
        inside = 0.5 * signed_zero_stack(gen, (2, 3, 4)) / 2.0
        inside[0, 0, 0] = 0.3 - 0.4j
        on_circle = inside.copy()
        on_circle[0, 1, 1] = 1.0 + 0j
        on_circle[1, 2, 3] = -0.0 - 1j
        ulp_out = on_circle.copy()
        ulp_out[1, 0, 2] = self.ULP_OUT - 0.0j
        one_out = inside.copy()
        one_out[1, 1, 1] = 3.0 - 4j
        all_out = 3.0 * random_sequence(gen, 2, 3, 4) + 4.0
        return {"inside": inside, "on_circle": on_circle, "ulp_out": ulp_out,
                "one_out": one_out, "all_out": all_out}

    CASES = ["inside", "on_circle", "ulp_out", "one_out", "all_out"]

    # Each case also runs the kernel with a caller's moduli buffer, as the
    # solve's dual kernel does: the first half of the float64 view of a
    # complex stack, holding stale values.
    @pytest.mark.parametrize("case,moduli", [
        *(pytest.param(case, False, id=case) for case in CASES),
        *(pytest.param(case, True, id=f"{case}-moduli") for case in CASES),
    ])
    def test_bytes_match_broadcast_formula(self, case, moduli):
        z = self.cases()[case]
        # p is (2, 3, 4), so q is (2, 4, 3): the same entries, transposed
        q = np.ascontiguousarray(z.transpose(0, 2, 1))
        out = project_linf_ball(DualField(z, q))
        assert out.p.tobytes() == broadcast_shrink(z).tobytes()
        assert out.q.tobytes() == broadcast_shrink(q).tobytes()
        if moduli:
            scratch = np.full(z.shape, 7.0 - 7.0j)
            for component, projected in ((z.copy(), out.p), (q.copy(), out.q)):
                buffer = scratch.reshape(-1).view(np.float64)[:z.size]
                operators._shrink_to_unit_disc(component, buffer.reshape(component.shape))
                assert component.tobytes() == projected.tobytes()

    def test_skip_leaves_entries_on_the_circle_alone(self):
        z = self.cases()["on_circle"]
        out = project_linf_ball(DualField(z, np.ascontiguousarray(z.transpose(0, 2, 1))))
        assert out.p.tobytes() == z.tobytes()

    def test_one_ulp_outside_is_rescaled(self):
        z = self.cases()["ulp_out"]
        out = project_linf_ball(DualField(z, np.ascontiguousarray(z.transpose(0, 2, 1))))
        assert out.p[1, 0, 2] != z[1, 0, 2]
        assert abs(out.p[1, 0, 2]) <= 1.0


class TestInputsUnchanged:
    """The kernels work in place; the public operators must not."""

    def test_public_operators_leave_inputs_alone(self, rng):
        x = random_sequence(rng, 3, 6, 5, scale=4.0)
        y = DualField(random_sequence(rng, 3, 5, 5, scale=4.0),
                      random_sequence(rng, 3, 6, 4, scale=4.0))
        mask = make_mask("random2d", 3, 6, 5, 0.5, seed=3)
        kept = (x.copy(), y.p.copy(), y.q.copy(), mask.copy())
        calls = [
            lambda: project_linf_ball(y),
            lambda: grad_adjoint(y),
            lambda: grad_forward(x),
            lambda: svt(x, 1.0),
            lambda: dft2_forward(x),
            lambda: dft2_adjoint(x),
            lambda: forward_op(x, mask),
            lambda: adjoint_op(x, mask),
        ]
        for call in calls:
            call()
            for before, after in zip(kept, (x, y.p, y.q, mask)):
                assert np.array_equal(before, after)
