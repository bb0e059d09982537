"""Vector blob codec.

Vectors are stored as little-endian float32 blobs — the exact memory
layout the batched distance kernels expect — so decoding a partition is
a zero-copy ``np.frombuffer`` and no per-vector marshalling happens on
the query path (paper §3.3: "By storing the vector blobs in the database
using the format expected by the matrix multiplication library, we
eliminate expensive data marshalling operations").
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DimensionMismatchError, StorageError

#: dtype of every stored vector; fixed little-endian for portability.
VECTOR_DTYPE = np.dtype("<f4")

#: dtype of quantized SQ8 codes: one unsigned byte per dimension.
CODE_DTYPE = np.dtype("u1")


def encode_vector(vector: np.ndarray, dim: int) -> bytes:
    """Encode one vector as a float32 little-endian blob.

    Accepts any 1-D array-like coercible to float32. Raises
    :class:`DimensionMismatchError` if the length is wrong and
    :class:`StorageError` for non-finite values, which would silently
    poison distance computations.
    """
    arr = np.asarray(vector, dtype=VECTOR_DTYPE)
    if arr.ndim != 1:
        raise StorageError(f"vector must be 1-D, got shape {arr.shape}")
    if arr.shape[0] != dim:
        raise DimensionMismatchError(expected=dim, actual=arr.shape[0])
    if not np.all(np.isfinite(arr)):
        raise StorageError("vector contains NaN or infinity")
    return arr.tobytes()


def decode_vector(blob: bytes, dim: int) -> np.ndarray:
    """Decode one blob back into a float32 vector (read-only view)."""
    expected = dim * VECTOR_DTYPE.itemsize
    if len(blob) != expected:
        raise StorageError(
            f"vector blob has {len(blob)} bytes, expected {expected}"
        )
    return np.frombuffer(blob, dtype=VECTOR_DTYPE)


def decode_matrix(blobs: list[bytes], dim: int) -> np.ndarray:
    """Decode a list of blobs into a contiguous (n, dim) float32 matrix.

    A single ``frombuffer`` over the concatenated payload keeps this a
    bulk copy rather than n small ones; the result is the matrix handed
    directly to the BLAS-backed distance kernels.
    """
    return _decode(blobs, dim, VECTOR_DTYPE, "vector")


def _decode(
    blobs: list[bytes], dim: int, dtype: np.dtype, what: str
) -> np.ndarray:
    """Join once, validate the blob widths by the total, reinterpret."""
    joined = b"".join(blobs)
    expected = len(blobs) * dim * dtype.itemsize
    if len(joined) != expected:
        raise StorageError(
            f"{len(blobs)} {what} blobs hold {len(joined)} bytes, "
            f"expected {expected}"
        )
    return np.frombuffer(joined, dtype=dtype).reshape(len(blobs), dim)


def encode_matrix(matrix: np.ndarray) -> list[bytes]:
    """Encode each row of a (n, dim) matrix as a blob."""
    arr = np.ascontiguousarray(matrix, dtype=VECTOR_DTYPE)
    if arr.ndim != 2:
        raise StorageError(f"matrix must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise StorageError("matrix contains NaN or infinity")
    return [row.tobytes() for row in arr]


def encode_code_matrix(codes: np.ndarray) -> list[bytes]:
    """Encode each row of a (n, dim) uint8 code matrix as a blob.

    SQ8 codes are stored exactly as the asymmetric scan kernel consumes
    them — one byte per dimension, row-contiguous — so, like the float
    blobs, decoding a quantized partition is a bulk ``frombuffer``.
    """
    arr = np.ascontiguousarray(codes)
    if arr.ndim != 2:
        raise StorageError(f"code matrix must be 2-D, got shape {arr.shape}")
    if arr.dtype != CODE_DTYPE:
        raise StorageError(f"codes must be uint8, got {arr.dtype}")
    return [row.tobytes() for row in arr]


def decode_code_matrix(blobs: list[bytes], dim: int) -> np.ndarray:
    """Decode code blobs into a contiguous (n, dim) uint8 matrix."""
    return _decode(blobs, dim, CODE_DTYPE, "code")
