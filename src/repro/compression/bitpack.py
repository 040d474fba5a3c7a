"""Fixed-bitwidth packing of non-negative integer codes.

This is the physical layer under PFOR/PFOR-DELTA/PDICT: codes of ``width``
bits are laid out densely, little-endian bit order. Packing and unpacking
are fully vectorized with numpy (the Python stand-in for the paper's AVX2
kernels that inflate 64-128 values in under half a cycle per value).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import CompressionError

MAX_CODE_WIDTH = 32


def width_for(max_value: int) -> int:
    """Smallest bit width that can represent ``max_value`` (>= 0)."""
    if max_value < 0:
        raise CompressionError(f"negative code {max_value} cannot be packed")
    return max(1, int(max_value).bit_length())


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into a dense little-endian bit stream."""
    if width < 1 or width > MAX_CODE_WIDTH:
        raise CompressionError(f"unsupported code width {width}")
    vals = np.asarray(values, dtype=np.uint64)
    if vals.size == 0:
        return b""
    if vals.max() >= (1 << width):
        raise CompressionError("value does not fit in code width")
    # Expand each value into `width` bits, little-endian within the value.
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8)
    flat = bits.reshape(-1)
    return np.packbits(flat, bitorder="little").tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns an int64 array of ``count`` codes.

    Code ``i`` starts at bit ``i * width``: one unaligned little-endian
    64-bit read at byte ``(i * width) >> 3``, shifted right by
    ``(i * width) & 7`` and masked, recovers it -- a code of at most 32
    bits plus a shift of at most 7 always fits in one word.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if width < 1 or width > MAX_CODE_WIDTH:
        raise CompressionError(f"unsupported code width {width}")
    n_bytes = packed_size(count, width)
    if len(data) < n_bytes:
        raise CompressionError("bit stream too short")
    # 8 zero bytes of padding let the last codes read a whole word
    buf = np.zeros(n_bytes + 8, dtype=np.uint8)
    buf[:n_bytes] = np.frombuffer(data, dtype=np.uint8, count=n_bytes)
    words = np.ndarray((n_bytes + 1,), dtype="<u8", buffer=buf,
                       strides=(1,))
    offsets = np.arange(0, count * width, width, dtype=np.int64)
    codes = words.take(offsets >> 3)
    codes >>= (offsets & 7).astype(np.uint64)
    codes &= np.uint64((1 << width) - 1)
    return codes.view(np.int64)


def packed_size(count: int, width: int) -> int:
    """Bytes needed to pack ``count`` codes of ``width`` bits."""
    return (count * width + 7) // 8
