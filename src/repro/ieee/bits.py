"""Bit-level access to IEEE-754 values.

The paper's IEEE injection path is exactly this: reinterpret the float's
bits as an unsigned integer, XOR a single-bit mask, reinterpret back
(Fig. 9).  ``float_to_bits``/``bits_to_float`` are zero-copy views for the
native formats and software conversions for bfloat16.
"""

from __future__ import annotations

import numpy as np

from repro.ieee.formats import BFLOAT16, BINARY32, IEEEFormat


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
    exactly.  Scaling by powers of two is exact and ``np.rint`` rounds
    half-to-even, so the result is a single correct rounding of the
    input (matching what a native dtype cast would do).
    """
    _check_software_format(fmt)
    x = np.asarray(values, dtype=np.float64)
    f = fmt.fraction_bits
    bias = fmt.bias
    sign = np.signbit(x).astype(np.uint64)
    a = np.abs(x)

    is_nan = np.isnan(x)
    is_inf = np.isinf(x)
    finite = ~(is_nan | is_inf) & (a != 0)

    mantissa, exp2 = np.frexp(np.where(finite, a, 1.0))
    unbiased = exp2.astype(np.int64) - 1
    biased = unbiased + bias
    normal = finite & (biased >= 1)
    subnormal = finite & (biased < 1)

    # Normal path: integer significand q = rint(a * 2**(f - unbiased))
    # lands in [2**f, 2**(f+1)]; the top value carries into the exponent.
    # Masked lanes shift 1.0 by nothing: a float64 subnormal's shift
    # would overflow.
    q_normal = np.rint(np.ldexp(np.where(normal, a, 1.0), np.where(normal, f - unbiased, 0)))
    carry = q_normal >= 2.0 ** (f + 1)
    biased = biased + carry.astype(np.int64)
    q_normal = np.where(carry, 2.0**f, q_normal)
    overflow = normal & (biased >= fmt.exponent_all_ones)

    # Subnormal path: count quanta of 2**(1 - bias - f); a full count of
    # 2**f promotes to the smallest normal.
    q_sub = np.rint(np.ldexp(np.where(subnormal, a, 0.0), f + bias - 1))
    promote = subnormal & (q_sub >= 2.0**f)

    exp_field = np.zeros(np.shape(x), dtype=np.uint64)
    frac_field = np.zeros(np.shape(x), dtype=np.uint64)
    exp_field = np.where(normal, biased.astype(np.uint64), exp_field)
    frac_field = np.where(normal, (q_normal - 2.0**f).astype(np.uint64), frac_field)
    exp_field = np.where(promote, np.uint64(1), exp_field)
    frac_field = np.where(subnormal & ~promote, q_sub.astype(np.uint64), frac_field)

    all_ones = np.uint64(fmt.exponent_all_ones)
    exp_field = np.where(is_inf | overflow, all_ones, exp_field)
    frac_field = np.where(is_inf | overflow, np.uint64(0), frac_field)
    exp_field = np.where(is_nan, all_ones, exp_field)
    frac_field = np.where(is_nan, np.uint64(1) << np.uint64(f - 1), frac_field)

    pattern = (
        (sign << np.uint64(fmt.nbits - 1))
        | (exp_field << np.uint64(f))
        | frac_field
    )
    return pattern.astype(fmt.dtype)


def software_bits_to_float(bits, fmt: IEEEFormat) -> np.ndarray:
    """Decode an arbitrary ``binary(e,f)`` layout to float64, exactly."""
    _check_software_format(fmt)
    work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(fmt.mask)
    f = fmt.fraction_bits
    sign_bit = (work >> np.uint64(fmt.nbits - 1)) & np.uint64(1)
    e_raw = ((work >> np.uint64(f)) & np.uint64(fmt.exponent_all_ones)).astype(np.int64)
    frac = (work & np.uint64(fmt.fraction_mask)).astype(np.float64)

    normal_value = np.ldexp(1.0 + frac * 2.0**-f, e_raw - fmt.bias)
    subnormal_value = np.ldexp(frac, 1 - fmt.bias - f)
    value = np.where(e_raw == 0, subnormal_value, normal_value)
    special = np.where(frac == 0.0, np.inf, np.nan)
    value = np.where(e_raw == fmt.exponent_all_ones, special, value)
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
