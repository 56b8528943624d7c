import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdledm.errors import (
    BadMagicError,
    DimensionError,
    FileFormatError,
    HeaderError,
    PayloadSizeError,
)
from rdledm.sampling import MASK_MAGIC, read_mask
from rdledm.sequence import (
    SEQUENCE_MAGIC,
    as_sequence,
    casorati,
    frobenius_norm,
    from_casorati,
    inner_product,
    read_sequence,
    write_sequence,
)

from conftest import random_sequence


def small_stacks():
    shapes = st.tuples(
        st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)
    )
    elements = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    return shapes.flatmap(
        lambda s: st.tuples(
            hnp.arrays(np.float64, s, elements=elements),
            hnp.arrays(np.float64, s, elements=elements),
        )
    ).map(lambda pair: pair[0] + 1j * pair[1])


class TestValidation:
    def test_accepts_complex_stack(self, rng):
        x = random_sequence(rng, 2, 3, 4)
        assert as_sequence(x) is x

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            as_sequence(np.zeros((3, 3)))

    def test_rejects_empty_axis(self):
        with pytest.raises(DimensionError):
            as_sequence(np.zeros((0, 3, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nan * 1j])
    def test_rejects_non_finite(self, bad):
        x = np.ones((1, 2, 2), dtype=complex)
        x[0, 1, 1] = bad
        with pytest.raises(DimensionError):
            as_sequence(x)

    def test_copy_flag(self, rng):
        x = random_sequence(rng, 1, 2, 2)
        assert as_sequence(x, copy=True) is not x


class TestNorms:
    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 4, 4), dtype=complex)) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([3.0, 4.0]).reshape(1, 1, 2)) == 5.0

    def test_matches_independent_accumulation(self, rng):
        # second opinion: magnitude-squared summed with math.fsum
        x = random_sequence(rng, 2, 8, 8)
        oracle = math.sqrt(math.fsum(abs(v) ** 2 for v in x.ravel()))
        assert frobenius_norm(x) == pytest.approx(oracle, rel=1e-12)

    def test_inner_product_counts_ones(self):
        ones = np.ones((1, 2, 2), dtype=complex)
        assert inner_product(ones, ones) == 4 + 0j

    def test_inner_product_conjugates_first_argument(self):
        a = np.array([[[1j]]])
        b = np.array([[[1.0 + 0j]]])
        assert inner_product(a, b) == -1j

    def test_inner_product_elementwise_oracle(self, rng):
        a = random_sequence(rng, 2, 6, 6)
        b = random_sequence(rng, 2, 6, 6)
        oracle = sum(
            complex(u).conjugate() * complex(v)
            for u, v in zip(a.ravel(), b.ravel())
        )
        assert inner_product(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_inner_product_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            inner_product(random_sequence(rng, 1, 2, 2), random_sequence(rng, 1, 2, 3))

    @given(small_stacks())
    def test_self_inner_product_is_squared_norm(self, x):
        norm_sq = frobenius_norm(x) ** 2
        assert inner_product(x, x) == pytest.approx(norm_sq, rel=1e-12, abs=1e-12)

    @given(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
           st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, shape, seed):
        gen = np.random.default_rng(seed)
        a = random_sequence(gen, *shape)
        b = random_sequence(gen, *shape)
        assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-12

    @given(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
           st.integers(0, 2**32 - 1))
    def test_cauchy_schwarz(self, shape, seed):
        gen = np.random.default_rng(seed)
        a = random_sequence(gen, *shape)
        b = random_sequence(gen, *shape)
        bound = frobenius_norm(a) * frobenius_norm(b)
        assert abs(inner_product(a, b)) <= bound + 1e-12


class TestCasorati:
    def test_column_is_flattened_frame(self):
        x = np.arange(8, dtype=float).reshape(2, 2, 2) + 1
        mat = casorati(x)
        assert mat.shape == (4, 2)
        assert np.array_equal(mat[:, 0], np.array([1, 2, 3, 4], dtype=complex))

    def test_round_trip_identity(self, rng):
        x = random_sequence(rng, 3, 4, 5)
        back = from_casorati(casorati(x), 4, 5)
        assert np.array_equal(back, x)

    def test_single_frame(self, rng):
        x = random_sequence(rng, 1, 3, 2)
        assert casorati(x).shape == (6, 1)

    def test_from_casorati_rejects_bad_rows(self, rng):
        with pytest.raises(DimensionError):
            from_casorati(np.zeros((5, 2), dtype=complex), 2, 2)


class TestFileFormat:
    def test_round_trip_bits(self, rng, tmp_path):
        x = random_sequence(rng, 3, 4, 5)
        path = tmp_path / "seq.dseq"
        write_sequence(x, path)
        back = read_sequence(path)
        assert back.dtype == np.complex128
        assert np.array_equal(back, x)

    def test_round_trip_keeps_signed_zeros(self, tmp_path):
        # array_equal cannot see the sign of a zero; the bytes can
        parts = np.array([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0], [0.0, -2.5],
                          [3.0, 0.0], [-0.0, 0.0]])
        x = parts.view(np.complex128).reshape(1, 2, 3)
        path = tmp_path / "zeros.dseq"
        write_sequence(x, path)
        back = read_sequence(path)
        assert back.tobytes() == x.tobytes()
        assert back.flags.owndata and back.flags.writeable
        write_sequence(back, tmp_path / "again.dseq")
        assert (tmp_path / "again.dseq").read_bytes() == path.read_bytes()

    def test_payload_size_is_exact(self, rng, tmp_path):
        x = random_sequence(rng, 2, 3, 3)
        path = tmp_path / "seq.dseq"
        write_sequence(x, path)
        header = b"DSEQ1\n2 3 3\n"
        assert path.stat().st_size == len(header) + 16 * 2 * 3 * 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dseq"
        path.write_bytes(b"DSEQ2\n1 1 1\n" + b"\0" * 16)
        with pytest.raises(BadMagicError):
            read_sequence(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dseq"
        path.write_bytes(b"")
        with pytest.raises(BadMagicError):
            read_sequence(path)

    @pytest.mark.parametrize("header", [b"1 1\n", b"1 one 1\n", b"0 1 1\n",
                                        b"1 1 1 1\n", b"\xff\xfe 1 1\n",
                                        b"1_0 1 1\n", b"+1 1 1\n", b" 1 1 1\n",
                                        b"1  1 1\n", b"1\t1 1\n", b"1 1 1 \n",
                                        b"1 1 1\r\n", b"-1 1 1\n"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "hdr.dseq"
        path.write_bytes(b"DSEQ1\n" + header + b"\0" * 16)
        with pytest.raises(HeaderError):
            read_sequence(path)

    def test_header_without_newline(self, tmp_path):
        path = tmp_path / "hdr.dseq"
        path.write_bytes(b"DSEQ1\n1 1 1")
        with pytest.raises(HeaderError):
            read_sequence(path)

    def test_truncated_payload(self, rng, tmp_path):
        x = random_sequence(rng, 1, 2, 2)
        path = tmp_path / "short.dseq"
        write_sequence(x, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(PayloadSizeError):
            read_sequence(path)

    def test_huge_header_checked_before_reading(self, tmp_path):
        path = tmp_path / "huge.dseq"
        path.write_bytes(b"DSEQ1\n1000000 1000000 100000\n")
        with pytest.raises(PayloadSizeError, match="expected 1600000000000000000 bytes, got 0"):
            read_sequence(path)

    def test_trailing_bytes(self, rng, tmp_path):
        x = random_sequence(rng, 1, 2, 2)
        path = tmp_path / "long.dseq"
        write_sequence(x, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(PayloadSizeError):
            read_sequence(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        path = tmp_path / "nan.dseq"
        payload = np.array([0.0, 1.0, 2.0, bad], dtype="<f8").tobytes()
        path.write_bytes(b"DSEQ1\n1 1 2\n" + payload)
        with pytest.raises(FileFormatError, match="NaN or Inf"):
            read_sequence(path)


# Headers close to valid ones, so that payload checks are reached too.
_HEADERS = st.from_regex(rb"\A[0-9 +_\t-]{0,10}\n", fullmatch=True)


class TestReaderFuzz:
    @given(
        st.sampled_from([(SEQUENCE_MAGIC, read_sequence), (MASK_MAGIC, read_mask)]),
        st.one_of(st.binary(max_size=80),
                  st.builds(bytes.__add__, _HEADERS, st.binary(max_size=80))),
    )
    def test_any_bytes_after_magic_raise_only_file_format_error(self, tmp_path_factory,
                                                                reader, tail):
        magic, read = reader
        path = tmp_path_factory.mktemp("fuzz") / "blob"
        path.write_bytes(magic + tail)
        try:
            read(path)
        except FileFormatError:
            pass
