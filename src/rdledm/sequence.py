"""Dynamic image stacks: validation, norms, Casorati reshaping, file I/O.

A dynamic sequence is a complex128 ndarray of shape (T, m, n): T frames
of m x n images, row-major within each frame. Every public function
validates its input and treats it as read-only.

On-disk format ("DSEQ1"):

    bytes 0..5    magic b"DSEQ1\\n"
    next line     ASCII header b"T m n\\n": three positive decimals of
                  ASCII digits, separated by single spaces
    payload       T*m*n little-endian float64 (real, imag) pairs,
                  frame-major then row-major: exactly 16*T*m*n bytes,
                  every value finite

The reader is strict: wrong magic, malformed header, wrong payload size
and a non-finite payload value are distinct errors, all of them
FileFormatError, and no partial data is ever returned.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .errors import (
    BadMagicError,
    DimensionError,
    FileFormatError,
    HeaderError,
    PayloadSizeError,
)

SEQUENCE_MAGIC = b"DSEQ1\n"

# One (real, imag) pair of little-endian float64 values.
_VALUE_DTYPE = np.dtype("<c16")


def as_sequence(data) -> np.ndarray:
    """Return ``data`` as a validated complex128 array of shape (T, m, n).

    No copy is made when ``data`` already is a complex128 ndarray. Raises
    DimensionError for wrong rank, empty axes, or non-finite entries.
    """
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != 3:
        raise DimensionError(
            f"expected a (frames, rows, cols) stack, got ndim={arr.ndim}"
        )
    if min(arr.shape) < 1:
        raise DimensionError(f"all axes must be nonempty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("sequence contains NaN or Inf entries")
    return arr


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    # Two validated sequences of one shape.
    a = as_sequence(a)
    b = as_sequence(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _largest_part(x: np.ndarray) -> float:
    # The largest |real| or |imaginary| part of the complex128 stack x, from
    # the extremes of its float64 view (no |x| copy); NaN and inf propagate.
    parts = x.ravel().view(np.float64)
    return max(float(parts.max()), -float(parts.min()))


def _rescaled(x: np.ndarray, largest: float) -> tuple[np.ndarray, int]:
    # (x * 2**-e, e) for e the binary exponent of x's largest part, a finite
    # `largest` > 0: the copy's largest part lies in [1/2, 1). Scaling by a
    # power of two, and back, is exact wherever the parts stay normal.
    e = math.frexp(largest)[1]
    parts = np.ldexp(x.ravel().view(np.float64), -e)
    return parts.view(np.complex128).reshape(x.shape), e


# Below this a norm's squares have underflowed, to 0 or to subnormals
# with few digits left.
_TINY_NORM = math.sqrt(sys.float_info.min)


def frobenius_norm(x) -> float:
    """Square root of the sum of squared magnitudes over the whole stack.

    Exact to rounding for any finite stack: where the squares overflow or
    underflow, the norm is taken on the stack scaled by the power of two
    that brings its largest real or imaginary part into [1/2, 1), and
    scaled back. A norm beyond the float range is ``inf``.
    """
    x = as_sequence(x)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x.ravel()))
        if math.isinf(norm) or norm < _TINY_NORM:
            largest = _largest_part(x)
            if largest > 0.0:
                scaled, e = _rescaled(x, largest)
                norm = float(np.ldexp(np.linalg.norm(scaled.ravel()), e))
    return norm


def inner_product(a, b) -> complex:
    """Complex inner product ``sum(conj(a) * b)`` over all entries.

    The first argument is conjugated, so ``inner_product(x, x)`` is real
    and equals ``frobenius_norm(x) ** 2``.
    """
    a, b = _as_pair(a, b)
    return complex(np.vdot(a, b))


def casorati(x) -> np.ndarray:
    """Reshape (T, m, n) into the (m*n, T) matrix whose column t is frame t.

    Each column is the row-major flattening of one frame. The result is
    a view when possible, so it is cheap inside the solver loop.
    """
    x = as_sequence(x)
    frames = x.shape[0]
    return x.reshape(frames, -1).T


def from_casorati(matrix, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`casorati`: back to a (T, rows, cols) stack."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={matrix.ndim}")
    if matrix.shape[0] != rows * cols:
        raise DimensionError(
            f"matrix has {matrix.shape[0]} rows, expected rows*cols={rows * cols}"
        )
    return as_sequence(matrix.T.reshape(matrix.shape[1], rows, cols))


def _read_header_line(handle, path) -> bytes:
    # Up to 128 bytes and the newline; readline stops right after the
    # newline, so the file position is exact for the payload that follows.
    line = handle.readline(129)
    if line.endswith(b"\n"):
        return line
    if len(line) > 128:
        raise HeaderError(f"{path}: header line longer than 128 bytes")
    raise HeaderError(f"{path}: unexpected end of file inside the header")


def _parse_dims(line: bytes, path) -> tuple[int, int, int]:
    # Only ASCII digits separated by single spaces: int() alone would
    # also take "+1", "1_0" and whitespace-padded fields.
    fields = line.removesuffix(b"\n").split(b" ")
    if len(fields) != 3:
        raise HeaderError(
            f"{path}: header must hold exactly three integers, got {line!r}"
        )
    if not all(f.isdigit() for f in fields):
        raise HeaderError(f"{path}: non-integer dimension in header: {line!r}")
    frames, rows, cols = (int(f) for f in fields)
    if frames < 1 or rows < 1 or cols < 1:
        raise HeaderError(f"{path}: dimensions must be positive, got {frames} {rows} {cols}")
    return frames, rows, cols


def write_sequence(x, path) -> None:
    """Write a sequence to ``path`` in the DSEQ1 format."""
    x = as_sequence(x)
    _write_payload(path, SEQUENCE_MAGIC, x.shape, x.astype(_VALUE_DTYPE, copy=False).tobytes())


def _read_payload(path, magic: bytes, entry_bytes: int) -> tuple[tuple[int, int, int], bytes]:
    """Read a magic + "T m n" header file; return its dims and exact payload.

    Shared by the DSEQ1 and MASK1 readers. The payload size the header
    implies is checked against the file size before anything is read, so
    a header that claims more data than the file holds cannot make the
    reader allocate it.
    """
    with open(path, "rb") as handle:
        found = handle.read(len(magic))
        if found != magic:
            raise BadMagicError(f"{path}: bad magic {found!r}, expected {magic!r}")
        dims = _parse_dims(_read_header_line(handle, path), path)
        expected = entry_bytes * dims[0] * dims[1] * dims[2]
        available = os.fstat(handle.fileno()).st_size - handle.tell()
        if available < expected:
            raise PayloadSizeError(
                f"{path}: payload truncated, expected {expected} bytes, got {available}"
            )
        if available > expected:
            raise PayloadSizeError(f"{path}: trailing bytes after {expected}-byte payload")
        payload = handle.read(expected)
    if len(payload) != expected:
        raise PayloadSizeError(f"{path}: file shrank while its payload was read")
    return dims, payload


def _write_payload(path, magic: bytes, dims: tuple[int, int, int], payload: bytes) -> None:
    """Write a magic + "T m n" header file; the writer behind DSEQ1 and MASK1."""
    frames, rows, cols = dims
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(f"{frames} {rows} {cols}\n".encode("ascii"))
        handle.write(payload)


def read_sequence(path) -> np.ndarray:
    """Read a DSEQ1 file, validating magic, header, payload size and values."""
    dims, payload = _read_payload(path, SEQUENCE_MAGIC, _VALUE_DTYPE.itemsize)
    # One copy out of the read-only buffer, bit for bit: the signs of
    # zero parts survive, and the result is owned and writeable.
    values = np.frombuffer(payload, dtype=_VALUE_DTYPE).reshape(dims).astype(np.complex128)
    if not np.isfinite(values).all():
        raise FileFormatError(f"{path}: payload holds NaN or Inf values")
    return values
