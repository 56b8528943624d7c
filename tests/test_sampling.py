import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdledm import _threads, operators, sampling
from rdledm.errors import (
    BadMagicError,
    DimensionError,
    FileFormatError,
    InfeasibleRatioError,
    PayloadSizeError,
)
from rdledm.operators import dft2_forward
from rdledm.sampling import (
    MASK_MAGIC,
    achieved_ratio,
    adjoint_op,
    as_mask,
    forward_op,
    make_mask,
    measure,
    read_mask,
    write_mask,
    zero_fill,
)
from rdledm.sequence import inner_product

from conftest import late_noise_overflow, random_sequence


class TestValidation:
    def test_accepts_binary(self):
        mask = as_mask(np.ones((1, 2, 2), dtype=np.int64))
        assert mask.dtype == np.uint8

    @pytest.mark.parametrize("value", [
        2, 0.5, 1.7, 256, 257, math.nan, -1, pytest.param("1", id="str-1"), None, 1 + 1j,
    ])
    def test_rejects_other_values(self, value):
        with pytest.raises(DimensionError):
            as_mask(np.full((1, 2, 2), value))

    def test_rejects_object_stack(self):
        with pytest.raises(DimensionError):
            as_mask(np.array([[[None, 1 + 1j]]], dtype=object))

    @pytest.mark.parametrize("stack", [
        *(pytest.param(np.array([[[0, 1], [1, 0]]], dtype=dtype), id=np.dtype(dtype).name)
          for dtype in (bool, np.float64, np.complex128, object)),
        # mixed Python types with a complex zero: int(0j) would raise
        pytest.param(np.array([[[0, 1.0], [True, 0j]]], dtype=object), id="mixed-object"),
    ])
    def test_accepts_zero_one_stacks(self, stack):
        # No ComplexWarning for a complex stack: the suite turns warnings into errors.
        mask = as_mask(stack)
        assert mask.dtype == np.uint8
        assert mask.tolist() == [[[0, 1], [1, 0]]]

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            as_mask(np.ones((4, 4)))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 2), (1, 2, 0)])
    def test_rejects_empty_axis(self, shape):
        with pytest.raises(DimensionError, match="nonempty"):
            as_mask(np.ones(shape))

    def test_achieved_ratio_counts(self):
        mask = np.zeros((1, 2, 4), dtype=np.uint8)
        mask[0, 0, :2] = 1
        assert achieved_ratio(mask) == 0.25


class TestMakeMaskCommon:
    @pytest.mark.parametrize("pattern", ["cartesian", "radial", "random2d"])
    def test_shape_dtype_and_ratio(self, pattern):
        mask = make_mask(pattern, 4, 64, 64, 0.3, seed=7)
        assert mask.shape == (4, 64, 64)
        assert mask.dtype == np.uint8
        assert abs(achieved_ratio(mask) - 0.3) <= 0.02

    @pytest.mark.parametrize("pattern", ["cartesian", "radial", "random2d"])
    def test_seed_reproducibility(self, pattern):
        a = make_mask(pattern, 3, 64, 64, 0.25, seed=11)
        b = make_mask(pattern, 3, 64, 64, 0.25, seed=11)
        c = make_mask(pattern, 3, 64, 64, 0.25, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("pattern", ["cartesian", "radial", "random2d"])
    def test_static_repeats_first_frame(self, pattern):
        mask = make_mask(pattern, 4, 64, 64, 0.25, seed=3, static=True)
        assert all(np.array_equal(mask[t], mask[0]) for t in range(4))

    @pytest.mark.parametrize("pattern", ["cartesian", "radial", "random2d"])
    def test_dynamic_frames_vary(self, pattern):
        mask = make_mask(pattern, 4, 64, 64, 0.25, seed=3)
        assert any(not np.array_equal(mask[t], mask[0]) for t in range(1, 4))

    @pytest.mark.parametrize("pattern", ["cartesian", "random2d"])
    def test_frames_use_independent_streams(self, pattern):
        # frame t depends on (seed, t) only, not on the stack length
        short = make_mask(pattern, 2, 64, 64, 0.25, seed=5)
        long = make_mask(pattern, 6, 64, 64, 0.25, seed=5)
        assert np.array_equal(short, long[:2])

    @pytest.mark.parametrize("pattern", ["cartesian", "radial", "random2d"])
    def test_full_ratio_is_all_ones(self, pattern):
        mask = make_mask(pattern, 2, 16, 16, 1.0, seed=0)
        assert mask.all()

    @pytest.mark.parametrize("pattern", ["cartesian", "radial", "random2d"])
    def test_dc_bin_always_sampled(self, pattern):
        # the centered origin lands at index (0, 0) after the layout shift
        mask = make_mask(pattern, 3, 64, 48, 0.25, seed=9)
        assert mask[:, 0, 0].all()

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            make_mask("spiral", 1, 8, 8, 0.5, seed=0)

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_bad_ratio(self, ratio):
        with pytest.raises(ValueError):
            make_mask("cartesian", 1, 8, 8, ratio, seed=0)

    def test_bad_frames(self):
        with pytest.raises(DimensionError):
            make_mask("cartesian", 0, 8, 8, 0.5, seed=0)

    @pytest.mark.parametrize("rows,cols", [(1, 8), (8, 1)])
    def test_grid_below_2x2(self, rows, cols):
        with pytest.raises(DimensionError, match="at least 2x2"):
            make_mask("cartesian", 1, rows, cols, 0.5, seed=0)

    @pytest.mark.parametrize("pattern", ["cartesian", "radial", "random2d"])
    @pytest.mark.parametrize("ratio", [0.5, 1.0])
    def test_negative_seed(self, pattern, ratio):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            make_mask(pattern, 1, 8, 8, ratio, seed=-1)


class TestCartesian:
    def test_rows_are_all_or_nothing(self):
        mask = make_mask("cartesian", 2, 64, 32, 0.3, seed=1)
        per_row = mask.sum(axis=2)
        assert np.isin(per_row, (0, 32)).all()

    def test_row_count_matches_request(self):
        mask = make_mask("cartesian", 2, 64, 32, 0.3, seed=1)
        rows_on = (mask.sum(axis=2) > 0).sum(axis=1)
        assert (rows_on == round(0.3 * 64)).all()

    def test_band_only_request_lands_on_known_rows(self):
        # ratio 6/64 keeps exactly the always-on band, rows 29..34 in
        # centered order, which the layout shift sends to 61..63, 0..2
        mask = make_mask("cartesian", 1, 64, 8, 6 / 64, seed=0)
        rows_on = np.flatnonzero(mask[0].sum(axis=1))
        assert set(rows_on) == {0, 1, 2, 61, 62, 63}

    def test_infeasible_below_band(self):
        with pytest.raises(InfeasibleRatioError):
            make_mask("cartesian", 1, 64, 64, 0.05, seed=0)


class TestRadial:
    def test_center_always_covered(self):
        mask = make_mask("radial", 3, 64, 64, 0.2, seed=2)
        assert mask[:, 0, 0].all()

    def test_infeasible_tiny_ratio(self):
        # one spoke on a 16x16 grid already covers ~7% of k-space
        with pytest.raises(InfeasibleRatioError):
            make_mask("radial", 1, 16, 16, 0.01, seed=0)

    def test_ratio_tolerance_across_sizes(self):
        for ratio in (0.15, 0.25, 0.4):
            mask = make_mask("radial", 2, 96, 64, ratio, seed=4)
            assert abs(achieved_ratio(mask) - ratio) <= 0.02


class TestRandom2d:
    def test_exact_sample_count_per_frame(self):
        mask = make_mask("random2d", 3, 64, 48, 0.25, seed=6)
        centered = np.fft.fftshift(mask, axes=(1, 2))
        wanted = round(0.25 * 64 * 48)
        assert (mask.sum(axis=(1, 2)) == wanted).all()
        # always-on central block: ceil(0.04 * 64) = 3 by ceil(0.04 * 48) = 2
        assert centered[:, 31:34, 23:25].all()

    def test_infeasible_below_block(self):
        with pytest.raises(InfeasibleRatioError):
            make_mask("random2d", 1, 100, 100, 0.0001, seed=0)


class TestMeasurement:
    def test_noiseless_equals_masked_spectrum(self, rng):
        x = random_sequence(rng, 2, 16, 16)
        mask = make_mask("random2d", 2, 16, 16, 0.5, seed=0)
        assert np.array_equal(measure(x, mask, 0.0, seed=1), forward_op(x, mask))

    def test_noise_reproducible_and_seeded(self, rng):
        x = random_sequence(rng, 2, 16, 16)
        mask = make_mask("random2d", 2, 16, 16, 0.5, seed=0)
        a = measure(x, mask, 0.1, seed=1)
        b = measure(x, mask, 0.1, seed=1)
        c = measure(x, mask, 0.1, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_confined_to_sampled_locations(self, rng):
        x = random_sequence(rng, 1, 16, 16)
        mask = make_mask("random2d", 1, 16, 16, 0.3, seed=0)
        noisy = measure(x, mask, 0.5, seed=3)
        assert np.array_equal(noisy[mask == 0], np.zeros((mask == 0).sum()))

    def test_noise_level_matches_sigma(self, rng):
        x = random_sequence(rng, 4, 64, 64)
        mask = np.ones((4, 64, 64), dtype=np.uint8)
        sigma = 0.25
        noise = measure(x, mask, sigma, seed=8) - dft2_forward(x)
        assert np.std(noise.real) == pytest.approx(sigma, rel=0.05)
        assert np.std(noise.imag) == pytest.approx(sigma, rel=0.05)

    def test_per_frame_noise_streams(self, rng):
        x = random_sequence(rng, 3, 8, 8)
        mask = np.ones((3, 8, 8), dtype=np.uint8)
        whole = measure(x, mask, 0.2, seed=5)
        head = measure(x[:1], mask[:1], 0.2, seed=5)
        assert np.array_equal(whole[:1], head)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_negative_sigma_rejected(self, rng, sigma):
        x = random_sequence(rng, 1, 4, 4)
        with pytest.raises(ValueError):
            measure(x, np.ones((1, 4, 4), dtype=np.uint8), sigma, seed=0)

    def test_overflowing_noise_rejected(self, rng):
        # 1e306 noise stays in range; at 1e308 some scaled draws overflow,
        # and measure raises instead of returning a k-space with Inf.
        x = random_sequence(rng, 2, 16, 16)
        mask = np.ones((2, 16, 16), dtype=np.uint8)
        assert np.isfinite(measure(x, mask, 1e306, seed=1)).all()
        with pytest.raises(ValueError, match="sigma 1e[+]308 is too large"):
            measure(x, mask, 1e308, seed=1)

    def test_shape_mismatch_rejected(self, rng):
        x = random_sequence(rng, 1, 4, 4)
        with pytest.raises(DimensionError):
            measure(x, np.ones((1, 4, 6), dtype=np.uint8), 0.1, seed=0)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_negative_seed_rejected(self, rng, sigma):
        x = random_sequence(rng, 1, 4, 4)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            measure(x, np.ones((1, 4, 4), dtype=np.uint8), sigma, seed=-1)


class TestForwardAdjoint:
    def test_adjoint_identity(self, rng):
        x = random_sequence(rng, 2, 8, 8)
        y = random_sequence(rng, 2, 8, 8)
        mask = make_mask("random2d", 2, 8, 8, 0.5, seed=1)
        lhs = inner_product(forward_op(x, mask), y)
        rhs = inner_product(x, adjoint_op(y, mask))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1))
    def test_adjoint_identity_property(self, seed):
        gen = np.random.default_rng(seed)
        x = random_sequence(gen, 2, 8, 8)
        y = random_sequence(gen, 2, 8, 8)
        mask = (gen.random((2, 8, 8)) < 0.5).astype(np.uint8)
        lhs = inner_product(forward_op(x, mask), y)
        rhs = inner_product(x, adjoint_op(y, mask))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_zero_fill_is_adjoint(self, rng):
        b = random_sequence(rng, 2, 8, 8)
        mask = make_mask("random2d", 2, 8, 8, 0.5, seed=1)
        assert np.array_equal(zero_fill(b, mask), adjoint_op(b, mask))

    def test_full_mask_round_trip(self, rng):
        x = random_sequence(rng, 2, 8, 8)
        mask = np.ones((2, 8, 8), dtype=np.uint8)
        assert np.allclose(adjoint_op(forward_op(x, mask), mask), x, atol=1e-12)


class TestMaskFiles:
    def test_round_trip(self, tmp_path):
        mask = make_mask("cartesian", 3, 16, 16, 0.5, seed=2)
        path = tmp_path / "m.mask"
        write_mask(mask, path)
        back = read_mask(path)
        assert np.array_equal(back, mask)
        assert back.dtype == np.uint8
        assert back.flags.owndata and back.flags.writeable and back.flags.c_contiguous

    @pytest.mark.parametrize("layout", [
        lambda m: m[:, ::2],
        lambda m: m.astype(bool),
        np.asfortranarray,
        lambda m: m[:, ::-1].astype(np.int64),
    ], ids=["strided", "bool", "fortran", "reversed-int64"])
    def test_any_layout_writes_its_native_bytes(self, tmp_path, layout):
        mask = layout(make_mask("random2d", 3, 16, 12, 0.4, seed=2))
        native = np.ascontiguousarray(mask, dtype=np.uint8)
        write_mask(mask, tmp_path / "m.mask")
        frames, rows, cols = mask.shape
        header = MASK_MAGIC + f"{frames} {rows} {cols}\n".encode()
        assert (tmp_path / "m.mask").read_bytes() == header + native.tobytes()
        assert np.array_equal(read_mask(tmp_path / "m.mask"), mask)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_bytes(b"MASK2\n1 1 1\n\x00")
        with pytest.raises(BadMagicError):
            read_mask(path)

    def test_non_binary_payload(self, tmp_path):
        path = tmp_path / "m.mask"
        for byte in (b"\x02", b"\xff"):
            path.write_bytes(b"MASK1\n1 1 2\n\x00" + byte)
            with pytest.raises(FileFormatError):
                read_mask(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_bytes(b"MASK1\n1 2 2\n\x00\x01")
        with pytest.raises(PayloadSizeError):
            read_mask(path)

    def test_huge_header_checked_before_reading(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_bytes(b"MASK1\n1000000 1000000 100000\n\x01")
        with pytest.raises(PayloadSizeError, match="got 1"):
            read_mask(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_bytes(b"MASK1\n1 1 2\n\x00\x01\x00")
        with pytest.raises(PayloadSizeError):
            read_mask(path)


# SHA-256 of make_mask(pattern, 5, 37, 50, ratio, seed=17, static=static),
# an odd grid on which every pattern shifts unevenly to DFT order.
PINNED_MASKS = {
    ("cartesian", 0.3, False): "495a9cc8cafc5eb493b9080f0d1cbea3073f05d4c891560b7c1037835ae2dc64",
    ("cartesian", 0.3, True): "4454c0ce785107c903e94037734c07d827aabc31b9fc4a265df5c42a5fbb0802",
    ("cartesian", 0.65, False): "a939c4dbfedaaf37d9572a1c07fe0d1539c5b6ee80cc8470f35cd6bdf1864a66",
    ("cartesian", 0.65, True): "0ed8a0732ae6ec87d364f6e5fd5f681ddbb4b37329d461fd27138fdf05891cdf",
    ("radial", 0.3, False): "1bcd71d4a54a5e81734f424bf1d27e4a51e59aca8056aad49fb3ba22e0bc6c6e",
    ("radial", 0.3, True): "7ff9fa717933c6c81534e38fdf33939d11a50fd61d85038ecdfcf6f77925aab8",
    ("radial", 0.65, False): "9eb4e07e8b31b27aa3331745aa6578b076beba3fee8947fe6f50c6b16833c8dd",
    ("radial", 0.65, True): "7bf2f76f77bd1d2a98ffbf4fbd69882c7932ba09c7ea447b3ec55a3202039d2d",
    ("random2d", 0.3, False): "9a17b7009a7815a3572d974027026df8163d46d1f2ad46b604c6710074b865a0",
    ("random2d", 0.3, True): "18785ed22a741824ac3dd3aca58a602ff2b6c711fd270bab00844bb72944515d",
    ("random2d", 0.65, False): "6b14575b73eaceb3e3afa2bebce724ebc9a2d4d48924d06900c65a3491c7783a",
    ("random2d", 0.65, True): "82b500c6070ea0152421fe810b6ced9914e378ba625aa539fb6a6e3eeeea7aa1",
}
# SHA-256 of make_mask("radial", frames, rows, cols, 0.25, seed=17, static=static)
# at the shapes the benchmark and the CLI chain use.
PINNED_RADIAL = {
    (20, 128, 128, False): "b7f0e5cf54dd52da75ccd3764a93b97dfc052d377711261e0990c053fa3c35d3",
    (8, 64, 64, False): "5511df47ebde0ec579e510d4efc50f44d1c243fd5f539e01a65fb4784f721e59",
    (8, 64, 64, True): "7137214ff92f8fc3a437b819a7b34d118e5b6d13b5384b629864567dbd669819",
}
# SHA-256 of measure(pinned_sequence(), radial 0.3 dynamic mask, sigma, seed=23).
PINNED_MEASURE = {
    0.1: "4953a33575b3dcba81ba7935ce6d0262b0e64bd7c62528416ac582cdcde13a52",
    0.0: "557935086464c9cd227673741e6def225a0bb6036630f4e83417ab9dc5f08c96",
}


def pinned_sequence():
    i = np.arange(5 * 37 * 50, dtype=float).reshape(5, 37, 50)
    return (i % 7) + 1j * (i % 5)


def sha256(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TestPinnedAcquisition:
    @pytest.mark.parametrize("key", sorted(PINNED_MASKS))
    def test_mask_bytes(self, key):
        pattern, ratio, static = key
        mask = make_mask(pattern, 5, 37, 50, ratio, seed=17, static=static)
        assert mask.dtype == np.uint8 and mask.shape == (5, 37, 50)
        assert sha256(mask) == PINNED_MASKS[key]
        assert mask.flags.c_contiguous and mask.flags.owndata and mask.flags.writeable

    @pytest.mark.parametrize("key", sorted(PINNED_RADIAL))
    def test_radial_mask_bytes(self, key):
        frames, rows, cols, static = key
        mask = make_mask("radial", frames, rows, cols, 0.25, seed=17, static=static)
        assert mask.dtype == np.uint8 and mask.shape == (frames, rows, cols)
        assert sha256(mask) == PINNED_RADIAL[key]

    @pytest.mark.parametrize("sigma", sorted(PINNED_MEASURE))
    def test_measure_bytes(self, sigma):
        mask = make_mask("radial", 5, 37, 50, 0.3, seed=17)
        assert sha256(measure(pinned_sequence(), mask, sigma, seed=23)) == PINNED_MEASURE[sigma]

    @pytest.mark.parametrize("call", [
        lambda x, m: measure(x, m, 0.1, seed=1),
        forward_op,
        adjoint_op,
    ], ids=["measure", "forward_op", "adjoint_op"])
    def test_inputs_validated_once(self, monkeypatch, call):
        # Counted in every namespace that validates on the way to the FFT.
        calls = {"as_sequence": 0, "as_mask": 0}

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((sampling, "as_sequence"), (operators, "as_sequence"),
                             (sampling, "as_mask")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        call(pinned_sequence(), make_mask("cartesian", 5, 37, 50, 0.3, seed=17))
        assert calls == {"as_sequence": 1, "as_mask": 1}

    @pytest.mark.parametrize("shape,static", [((20, 128, 128), False), ((3, 37, 50), False),
                                              ((1, 96, 64), False), ((6, 64, 48), True)])
    def test_radial_search_builds_each_spoke_count_once(self, monkeypatch, shape, static):
        frames, rows, cols = shape
        builds = []
        built = []
        radial_raster = sampling._radial_raster

        def counting(rows, cols, spokes, offsets, mask_frames):
            builds.append(spokes)
            assert offsets.shape == (1 if static else frames,)
            assert mask_frames == frames
            # the search keeps at most two earlier masks alive
            assert sum(ref() is not None for ref in built) <= 2
            mask = radial_raster(rows, cols, spokes, offsets, mask_frames)
            built.append(weakref.ref(mask))
            return mask

        monkeypatch.setattr(sampling, "_radial_raster", counting)
        make_mask("radial", frames, rows, cols, 0.25, seed=5, static=static)
        # every count once, the chosen one included
        assert len(builds) == len(set(builds))


def radial_frame_oracle(rows, cols, spokes, offset):
    # One frame at a time, each spoke stored through 2-D fancy indexing:
    # the raster's per-frame reference.
    angles = offset + np.pi * np.arange(spokes) / spokes
    dy, dx = np.sin(angles), np.cos(angles)
    cy, cx = rows // 2, cols // 2
    extent = sampling._boundary_extent
    t_fwd = np.minimum(extent(cy, dy, rows - 1), extent(cx, dx, cols - 1))
    t_bwd = np.minimum(extent(cy, -dy, rows - 1), extent(cx, -dx, cols - 1))
    r0, c0 = cy - t_bwd * dy, cx - t_bwd * dx
    r1, c1 = cy + t_fwd * dy, cx + t_fwd * dx
    u = np.linspace(0.0, 1.0, rows + cols + 1)
    rs = np.rint(r0[:, None] + u * (r1 - r0)[:, None]).astype(np.intp)
    cs = np.rint(c0[:, None] + u * (c1 - c0)[:, None]).astype(np.intp)
    frame = np.zeros((rows, cols), dtype=np.uint8)
    frame[rs.clip(0, rows - 1), cs.clip(0, cols - 1)] = 1
    return frame


@st.composite
def raster_cases(draw):
    rows = draw(st.integers(2, 70))
    cols = draw(st.integers(2, 70))
    spokes = draw(st.integers(1, 4 * (rows + cols)))
    units = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6))
    return rows, cols, spokes, np.array(units) * np.pi / spokes


class TestRadialRaster:
    @settings(max_examples=60, deadline=None)
    @given(raster_cases())
    def test_matches_per_frame_oracle(self, case):
        rows, cols, spokes, offsets = case
        raster = sampling._radial_raster(rows, cols, spokes, offsets, offsets.size)
        expected = np.stack([radial_frame_oracle(rows, cols, spokes, o) for o in offsets])
        assert raster.dtype == np.uint8 and raster.shape == expected.shape
        assert raster.tobytes() == expected.tobytes()

    def test_scratch_stays_within_one_complex_stack(self):
        # Chord points are rasterised in blocks: at a high ratio the search
        # probes up to hundreds of spokes per frame, and its scratch still
        # stays within one complex128 stack of the mask's shape. A static
        # mask draws one frame but sizes its blocks from the frames it
        # returns; on a grid this small that bound, not the block cap,
        # decides the block.
        for shape, static in (((20, 128, 128), False), ((4, 32, 32), True)):
            tracemalloc.start()
            try:
                mask = make_mask("radial", *shape, 0.9, seed=17, static=static)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert abs(achieved_ratio(mask) - 0.9) <= 0.02
            assert peak <= np.empty(shape, dtype=np.complex128).nbytes, shape


class TestFrameParallel:
    """The acquisition path writes the same bytes on any number of workers."""

    @pytest.fixture
    def splits(self, monkeypatch):
        # every count a _FrameBlocks cuts into parts
        cut, counts = _threads._FrameBlocks._cut, []

        def counting(self, count):
            counts.append(count)
            return cut(self, count)

        monkeypatch.setattr(_threads._FrameBlocks, "_cut", counting)
        return counts

    CALLS = {
        "measure-0": lambda x, m: measure(x, m, 0.0, seed=23),
        "measure-0.05": lambda x, m: measure(x, m, 0.05, seed=23),
        "forward_op": forward_op,
        "adjoint_op": adjoint_op,
        "zero_fill": zero_fill,
    }

    @pytest.mark.parametrize("layout", ["c-order", "strided"])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_operators(self, workers, splits, call, layout):
        # 5 frames: one block; blocks of 2 and 3; blocks of 1, 2 and 2. A
        # strided input (columns reversed in memory) gives the bytes of its
        # C-order copy.
        x = pinned_sequence()
        mask = make_mask("radial", 5, 37, 50, 0.3, seed=17)
        expected = self.CALLS[call](x, mask).tobytes()
        if layout == "strided":
            x = np.ascontiguousarray(x[:, :, ::-1])[:, :, ::-1]
            assert not x.flags.c_contiguous
        splits.clear()
        results = []
        for count in (1, 2, 3):
            workers(count)
            results.append(self.CALLS[call](x, mask).tobytes())
        assert results == [expected] * 3
        assert splits == [5, 5, 5]

    @pytest.mark.parametrize("count", [2, 3])
    def test_pinned_bytes(self, workers, count):
        # measure, and the radial masks, static and per frame
        workers(count)
        mask = make_mask("radial", 5, 37, 50, 0.3, seed=17)
        for sigma, digest in PINNED_MEASURE.items():
            assert sha256(measure(pinned_sequence(), mask, sigma, seed=23)) == digest, sigma
        for (pattern, ratio, static), digest in PINNED_MASKS.items():
            if pattern == "radial":
                mask = make_mask("radial", 5, 37, 50, ratio, seed=17, static=static)
                assert sha256(mask) == digest, (ratio, static)
        for (frames, rows, cols, static), digest in PINNED_RADIAL.items():
            mask = make_mask("radial", frames, rows, cols, 0.25, seed=17, static=static)
            assert sha256(mask) == digest, (frames, static)

    def test_overflow_in_a_pool_block_raises(self, workers):
        # on two workers the overflowing draw is made on the pool thread
        sigma, seed = late_noise_overflow()
        x = np.zeros((4, 16, 16), dtype=complex)
        mask = np.ones((4, 16, 16), dtype=np.uint8)
        assert np.isfinite(measure(x[:2], mask[:2], sigma, seed=seed)).all()
        for count in (1, 2):
            workers(count)
            with pytest.raises(ValueError, match="is too large"):
                measure(x, mask, sigma, seed=seed)
