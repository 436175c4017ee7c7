"""Vectorized, exact bit primitives on NumPy unsigned-integer arrays.

All functions accept scalars or arrays and return NumPy values of the
matching shape.  Widths other than 8/16/32/64 are supported by the
``width=`` keyword, which treats only the low ``width`` bits of the input
as significant (as the posit code does for non-power-of-two posits).
"""

from __future__ import annotations

import numpy as np

from repro.bitops.lut import CLZ16, POPCOUNT16

_UINT_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def uint_dtype_for(width: int) -> np.dtype:
    """Smallest unsigned NumPy dtype that holds ``width`` bits."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    for bits, dtype in _UINT_DTYPES.items():
        if width <= bits:
            return np.dtype(dtype)
    raise ValueError(f"width {width} exceeds 64 bits")


def bit_mask(width: int, dtype: np.dtype | type | None = None) -> np.integer:
    """All-ones mask of ``width`` bits as an unsigned NumPy scalar."""
    if not 0 <= width <= 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    if dtype is None:
        dtype = uint_dtype_for(max(width, 1))
    if width == 64:
        return np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    return np.dtype(dtype).type((1 << width) - 1)


def _as_uint64(bits) -> np.ndarray:
    array = np.asarray(bits)
    if array.dtype.kind not in "ui":
        raise TypeError(f"expected integer bits, got dtype {array.dtype}")
    return array.astype(np.uint64, copy=False)


def clz32(bits) -> np.ndarray:
    """Count of leading zeros in 32-bit words (clz32(0) == 32)."""
    work = np.asarray(bits).astype(np.uint32, copy=False)
    high = (work >> np.uint32(16)).astype(np.intp)
    low = (work & np.uint32(0xFFFF)).astype(np.intp)
    high_clz = CLZ16[high].astype(np.int64)
    low_clz = CLZ16[low].astype(np.int64) + 16
    return np.where(high != 0, high_clz, low_clz)


def clz64(bits) -> np.ndarray:
    """Count of leading zeros in 64-bit words (clz64(0) == 64)."""
    work = _as_uint64(bits)
    high = (work >> np.uint64(32)).astype(np.uint32)
    low = (work & np.uint64(0xFFFF_FFFF)).astype(np.uint32)
    high_clz = clz32(high)
    low_clz = clz32(low) + 64 - 32
    return np.where(high != 0, high_clz, low_clz)


def clz(bits, width: int) -> np.ndarray:
    """Leading zeros within the low ``width`` bits of each element.

    Bits above ``width`` are ignored.  ``clz(0, width) == width``.
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    work = _as_uint64(bits)
    if width < 64:
        work = work & np.uint64((1 << width) - 1)
    return clz64(work) - (64 - width)


def ctz(bits, width: int) -> np.ndarray:
    """Trailing zeros within the low ``width`` bits (ctz(0) == width)."""
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    work = _as_uint64(bits)
    if width < 64:
        work = work & np.uint64((1 << width) - 1)
    # Isolate lowest set bit; its clz gives the position from the top.
    # The +1 intentionally wraps for an all-ones complement.
    with np.errstate(over="ignore"):
        lowest = work & (~work + np.uint64(1))
    position_from_top = clz64(lowest)
    return np.where(work == 0, width, np.int64(63) - position_from_top)


def popcount(bits, width: int = 64) -> np.ndarray:
    """Number of set bits within the low ``width`` bits of each element."""
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    work = _as_uint64(bits)
    if width < 64:
        work = work & np.uint64((1 << width) - 1)
    total = np.zeros(work.shape, dtype=np.int64)
    for shift in (0, 16, 32, 48):
        chunk = ((work >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.intp)
        total += POPCOUNT16[chunk]
    return total


def leading_run_length(bits, width: int) -> np.ndarray:
    """Length of the run of identical bits starting at the MSB.

    Operates on the low ``width`` bits.  This is the posit regime
    run-length primitive: for a body whose top bit is 1 the run is the
    count of leading ones, otherwise the count of leading zeros.  A body
    of all-equal bits returns ``width``.
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    work = _as_uint64(bits) & mask
    top_is_one = (work >> np.uint64(width - 1)) & np.uint64(1)
    inverted = (~work) & mask
    ones_run = clz(inverted, width)
    zeros_run = clz(work, width)
    return np.where(top_is_one.astype(bool), ones_run, zeros_run)


def twos_complement(bits, width: int):
    """Two's complement of each element within ``width`` bits."""
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    work = _as_uint64(bits)
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    # The +1 intentionally wraps when complementing zero.
    with np.errstate(over="ignore"):
        result = (~work + np.uint64(1)) & mask
    original = np.asarray(bits)
    if original.dtype.kind == "u":
        return result.astype(original.dtype)
    return result


def sign_bit(bits, width: int) -> np.ndarray:
    """The MSB of the low ``width`` bits, as 0/1 int64."""
    work = _as_uint64(bits)
    return ((work >> np.uint64(width - 1)) & np.uint64(1)).astype(np.int64)


def extract_bits(bits, low: int, count: int) -> np.ndarray:
    """Extract ``count`` bits starting at bit index ``low`` (LSB == 0)."""
    if count < 0 or low < 0 or low + count > 64:
        raise ValueError(f"invalid bit range low={low} count={count}")
    if count == 0:
        return np.zeros(np.asarray(bits).shape, dtype=np.uint64)
    work = _as_uint64(bits)
    mask = np.uint64((1 << count) - 1) if count < 64 else np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    return (work >> np.uint64(low)) & mask


def set_bits_string(value: int, width: int) -> str:
    """Render the low ``width`` bits of ``value`` as a binary string."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return format(int(value) & ((1 << width) - 1), f"0{width}b")


def to_signed(bits, width: int) -> np.ndarray:
    """Reinterpret the low ``width`` bits as a two's-complement integer."""
    work = _as_uint64(bits)
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    work = work & mask
    signed = work.astype(np.int64)
    if width < 64:
        offset = np.int64(1 << width)
        signed = np.where(signed >= np.int64(1 << (width - 1)), signed - offset, signed)
    return signed


def to_unsigned(values, width: int) -> np.ndarray:
    """Inverse of :func:`to_signed` — wrap signed values into ``width`` bits."""
    work = np.asarray(values).astype(np.int64, copy=False)
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    return work.astype(np.uint64) & mask
