"""Bit-level access to IEEE-754 values.

The paper's IEEE injection path is exactly this: reinterpret the float's
bits as an unsigned integer, XOR a single-bit mask, reinterpret back
(Fig. 9).  ``float_to_bits``/``bits_to_float`` are zero-copy views for the
native formats and software conversions for bfloat16.
"""

from __future__ import annotations

import numpy as np

from repro.bitops import shift_round
from repro.ieee.formats import BFLOAT16, BINARY32, IEEEFormat

_FRACTION_MASK = (1 << 52) - 1


def is_hardware_layout(fmt: IEEEFormat) -> bool:
    """Whether ``fmt`` converts without software arithmetic.

    The native widths (binary16/32/64) convert by a NumPy dtype cast
    and bfloat16 by a 16-bit shift against float32; every other
    ``binary(e,f)`` layout takes the software codec below.  Table
    decoding pays off only for the latter.
    """
    return fmt.float_dtype is not None or fmt is BFLOAT16


def float_to_bits(values, fmt: IEEEFormat) -> np.ndarray:
    """Bit patterns of float values, as the format's unsigned dtype.

    For native formats this is a reinterpreting view-cast (no rounding);
    inputs of a different float width are first converted to the format's
    dtype, which rounds like storing to memory would.  bfloat16 patterns
    are derived from float32 by round-to-nearest-even truncation of the
    low 16 bits.  A finite value beyond the format's range stores as
    ±inf, as IEEE-754 defines, without a NumPy overflow warning.
    """
    array = np.asarray(values)
    if fmt.float_dtype is not None:
        with np.errstate(over="ignore"):
            array = array.astype(fmt.float_dtype, copy=False)
        return array.view(fmt.dtype)
    if fmt is not BFLOAT16:
        return software_float_to_bits(values, fmt)
    with np.errstate(over="ignore"):
        single = np.asarray(values, dtype=np.float32)
    bits32 = single.view(np.uint32)
    # Round-to-nearest-even on the dropped 16 bits, NaN preserved.
    nan_mask = np.isnan(single)
    rounding = np.uint32(0x7FFF) + ((bits32 >> np.uint32(16)) & np.uint32(1))
    rounded = (bits32 + rounding) >> np.uint32(16)
    rounded = np.where(nan_mask, (bits32 >> np.uint32(16)) | np.uint32(0x40), rounded)
    return rounded.astype(np.uint16)


def bits_to_float(bits, fmt: IEEEFormat) -> np.ndarray:
    """Float values of bit patterns (inverse of :func:`float_to_bits`)."""
    array = np.asarray(bits).astype(fmt.dtype, copy=False)
    if not is_hardware_layout(fmt):
        return software_bits_to_float(array, fmt)
    if fmt.float_dtype is not None:
        return array.view(fmt.float_dtype)
    bits32 = array.astype(np.uint32) << np.uint32(16)
    return bits32.view(np.float32)


def _check_software_format(fmt: IEEEFormat) -> None:
    """Software conversion works for any layout float64 can host exactly."""
    if not 2 <= fmt.exponent_bits <= 11:
        raise ValueError(
            f"software IEEE codec needs 2..11 exponent bits, got {fmt.exponent_bits}"
        )
    if not 1 <= fmt.fraction_bits <= 52:
        raise ValueError(
            f"software IEEE codec needs 1..52 fraction bits, got {fmt.fraction_bits}"
        )


def software_float_to_bits(values, fmt: IEEEFormat) -> np.ndarray:
    """Round float64 values into an arbitrary ``binary(e,f)`` layout.

    Pure-NumPy round-to-nearest-even for any format whose exponent fits
    in 11 bits and fraction in 52 — i.e. any layout float64 covers
    exactly.  Both cases round the float64 bit pattern once with
    :func:`repro.bitops.shift_round`, so the result is a single correct
    rounding of the input (matching what a native dtype cast would do):

    * a normal result is the float64 pattern with its exponent rebiased,
      rounded from 52 fraction bits to ``f``; a carry runs on into the
      exponent field, up to the infinity pattern;
    * a subnormal result counts quanta of ``2**(1 - bias - f)``: the
      float64 significand, implicit bit included, shifted right.  A full
      count of ``2**f`` is the smallest normal's pattern.
    """
    _check_software_format(fmt)
    x = np.asarray(values, dtype=np.float64)
    f = fmt.fraction_bits
    bias = fmt.bias
    bits = np.abs(x).view(np.int64)
    exponent = bits >> 52

    # Magnitudes from 2**(all_ones - bias) up, inf included, clip to that
    # power of two, whose pattern is infinity's.
    inf_bits = (fmt.exponent_all_ones + 1023 - bias) << 52
    normal = shift_round(np.minimum(bits, inf_bits) - ((1023 - bias) << 52), 52 - f)
    # A float64 subnormal (exponent field 0) has no implicit bit and
    # scale 2**-1022; drops past 62 bits all round to zero.
    significand = (bits & _FRACTION_MASK) | np.minimum(exponent, 1) << 52
    drop = np.clip((1076 - bias - f) - np.maximum(exponent, 1), 0, 62)
    pattern = np.where(exponent + bias > 1023, normal, shift_round(significand, drop))

    nan_pattern = (fmt.exponent_all_ones << f) | (1 << (f - 1))
    pattern = np.where(np.isnan(x), nan_pattern, pattern)
    pattern = pattern | np.signbit(x).astype(np.int64) << (fmt.nbits - 1)
    return pattern.astype(fmt.dtype)


def software_bits_to_float(bits, fmt: IEEEFormat) -> np.ndarray:
    """Decode an arbitrary ``binary(e,f)`` layout to float64, exactly."""
    _check_software_format(fmt)
    work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(fmt.mask)
    f = fmt.fraction_bits
    sign_bit = (work >> np.uint64(fmt.nbits - 1)) & np.uint64(1)
    e_raw = ((work >> np.uint64(f)) & np.uint64(fmt.exponent_all_ones)).astype(np.int64)
    frac = (work & np.uint64(fmt.fraction_mask)).astype(np.float64)

    special = e_raw == fmt.exponent_all_ones
    # Inf/NaN lanes scale by nothing: with 11 exponent bits their
    # exponent would overflow ldexp.
    normal_value = np.ldexp(1.0 + frac * 2.0**-f, np.where(special, 0, e_raw - fmt.bias))
    subnormal_value = np.ldexp(frac, 1 - fmt.bias - f)
    value = np.where(e_raw == 0, subnormal_value, normal_value)
    value = np.where(special, np.where(frac == 0.0, np.inf, np.nan), value)
    return np.where(sign_bit == 1, -value, value)


def flip_bit(bits, bit_index: int, fmt: IEEEFormat) -> np.ndarray:
    """XOR bit ``bit_index`` (LSB == 0) of each pattern (paper Fig. 9)."""
    if not 0 <= bit_index < fmt.nbits:
        raise ValueError(f"bit_index must be in [0, {fmt.nbits}), got {bit_index}")
    work = np.asarray(bits).astype(fmt.dtype, copy=False)
    return work ^ fmt.dtype.type(1 << bit_index)


def flip_float_bit(values, bit_index: int, fmt: IEEEFormat = BINARY32) -> np.ndarray:
    """Flip one bit of each float and return the faulty floats."""
    return bits_to_float(flip_bit(float_to_bits(values, fmt), bit_index, fmt), fmt)


def extract_sign(bits, fmt: IEEEFormat) -> np.ndarray:
    """0/1 sign field."""
    work = np.asarray(bits).astype(np.uint64, copy=False)
    return ((work >> np.uint64(fmt.nbits - 1)) & np.uint64(1)).astype(np.int64)


def extract_exponent(bits, fmt: IEEEFormat) -> np.ndarray:
    """Raw (biased) exponent field as int64."""
    work = np.asarray(bits).astype(np.uint64, copy=False)
    mask = np.uint64((1 << fmt.exponent_bits) - 1)
    return ((work >> np.uint64(fmt.fraction_bits)) & mask).astype(np.int64)


def extract_fraction(bits, fmt: IEEEFormat) -> np.ndarray:
    """Fraction (mantissa) field as uint64."""
    work = np.asarray(bits).astype(np.uint64, copy=False)
    return work & np.uint64(fmt.fraction_mask)


def assemble(sign, exponent, fraction, fmt: IEEEFormat) -> np.ndarray:
    """Build bit patterns from the three fields."""
    s = np.asarray(sign).astype(np.uint64)
    e = np.asarray(exponent).astype(np.uint64)
    f = np.asarray(fraction).astype(np.uint64)
    if np.any(e > np.uint64(fmt.exponent_all_ones)):
        raise ValueError("exponent field overflows its width")
    if np.any(f > np.uint64(fmt.fraction_mask)):
        raise ValueError("fraction field overflows its width")
    pattern = (s << np.uint64(fmt.nbits - 1)) | (e << np.uint64(fmt.fraction_bits)) | f
    return pattern.astype(fmt.dtype)
