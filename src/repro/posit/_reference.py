"""Exact scalar posit reference implementation.

This module is the ground truth the vectorized encoder/decoder are tested
against.  It works on Python integers and :class:`fractions.Fraction`, so
every result is exact — no float rounding anywhere except where the posit
semantics themselves demand rounding.

Decoding implements both forms and cross-checks are done in the tests:

* the *direct* formula from the 2022 Posit Standard (the paper's Eq. 2),
  which reads the fields from the raw bit pattern::

      p = ((1 - 3s) + f) * 2**((1 - 2s) * (2**es * r + e + s))

* the *classic* two's-complement form: negative patterns are complemented,
  decoded as positive, and negated.

Encoding performs round-to-nearest-even on the posit bit string (the
rounding SoftPosit implements, which the paper's campaign relies on), with
the standard's saturation rules: a nonzero real never rounds to zero
(clamps to minpos) and a finite real never rounds to NaR (clamps to
maxpos); NaN and infinities map to NaR.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.posit.config import PositConfig


def round_half_even(value: Fraction) -> int:
    """Round an exact rational to the nearest integer, ties to even."""
    floor = value.numerator // value.denominator
    remainder = value - floor
    half = Fraction(1, 2)
    if remainder > half:
        return floor + 1
    if remainder < half:
        return floor
    return floor + (floor & 1)


def _split_fields(pattern: int, config: PositConfig) -> tuple[int, int, int, int, int]:
    """Extract (sign, regime r, exponent e, fraction m, fraction int).

    Fields are read from the raw pattern exactly as in the paper's
    Figure 4: sign, a run of identical regime bits optionally terminated,
    then up to ``es`` exponent bits, then the fraction.  Truncated
    exponent bits read as zero.
    """
    n = config.nbits
    pattern &= config.mask
    sign = (pattern >> (n - 1)) & 1
    body = pattern & (config.mask >> 1)  # low n-1 bits
    body_width = n - 1

    top_bit = (body >> (body_width - 1)) & 1 if body_width else 0
    run = 0
    for i in range(body_width - 1, -1, -1):
        if ((body >> i) & 1) == top_bit:
            run += 1
        else:
            break
    k = run
    has_terminator = run < body_width
    regime = k - 1 if top_bit == 1 else -k

    consumed = run + (1 if has_terminator else 0)
    rem = body_width - consumed
    e_avail = min(rem, config.es)
    if e_avail > 0:
        e = (body >> (rem - e_avail)) & ((1 << e_avail) - 1)
        e <<= config.es - e_avail
    else:
        e = 0
    m = max(rem - config.es, 0)
    f_int = body & ((1 << m) - 1) if m > 0 else 0
    return sign, regime, e, m, f_int


def decode_exact(pattern: int, config: PositConfig) -> Fraction | None:
    """Decode a posit bit pattern to an exact rational.

    Returns ``None`` for NaR.  Uses the direct (sign-free) standard
    formula on the raw bits.
    """
    pattern = int(pattern) & config.mask
    if pattern == config.zero_pattern:
        return Fraction(0)
    if pattern == config.nar_pattern:
        return None
    sign, regime, e, m, f_int = _split_fields(pattern, config)
    f = Fraction(f_int, 1 << m) if m > 0 else Fraction(0)
    mantissa = (1 - 3 * sign) + f
    scale = (1 - 2 * sign) * (config.useed_log2 * regime + e + sign)
    if scale >= 0:
        return mantissa * (1 << scale)
    return mantissa / (1 << (-scale))


def decode_exact_twos_complement(pattern: int, config: PositConfig) -> Fraction | None:
    """Classic decode: complement negatives, decode positive, negate."""
    pattern = int(pattern) & config.mask
    if pattern == config.zero_pattern:
        return Fraction(0)
    if pattern == config.nar_pattern:
        return None
    negative = bool(pattern & config.sign_mask)
    if negative:
        pattern = (~pattern + 1) & config.mask
    sign, regime, e, m, f_int = _split_fields(pattern, config)
    assert sign == 0, "two's complement of a non-NaR negative is positive"
    f = Fraction(f_int, 1 << m) if m > 0 else Fraction(0)
    value = (1 + f) * Fraction(2) ** (config.useed_log2 * regime + e)
    return -value if negative else value


def decode_float(pattern: int, config: PositConfig) -> float:
    """Decode to the nearest float64 (NaR becomes NaN)."""
    exact = decode_exact(pattern, config)
    if exact is None:
        return math.nan
    return float(exact)


def _floor_log2(value: Fraction) -> int:
    """Exact floor(log2(value)) for a positive rational."""
    if value <= 0:
        raise ValueError("value must be positive")
    estimate = value.numerator.bit_length() - value.denominator.bit_length()
    # estimate is within 1 of the true floor; fix up exactly.
    power = Fraction(2) ** estimate
    if power > value:
        estimate -= 1
        power /= 2
    if power * 2 <= value:
        estimate += 1
    return estimate


def encode_exact(value, config: PositConfig) -> int:
    """Encode a real value (float or Fraction) to a posit bit pattern.

    Implements bit-string round-to-nearest-even with the standard's
    saturation rules.  Floats are treated as exact dyadic rationals.
    """
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return config.nar_pattern
        value = Fraction(value)
    else:
        value = Fraction(value)
    if value == 0:
        return config.zero_pattern

    n = config.nbits
    negative = value < 0
    magnitude = -value if negative else value

    if magnitude >= Fraction(2) ** config.max_scale:
        pattern = config.maxpos_pattern
        return _apply_sign(pattern, negative, config)
    if magnitude <= Fraction(2) ** (-config.max_scale):
        pattern = config.minpos_pattern
        return _apply_sign(pattern, negative, config)

    h = _floor_log2(magnitude)
    regime = h // config.useed_log2  # floor division: exact for negatives
    e = h - config.useed_log2 * regime
    fraction = magnitude / (Fraction(2) ** h) - 1  # in [0, 1)

    if regime >= 0:
        regime_pattern = ((1 << (regime + 1)) - 1) << 1
        regime_len = regime + 2
    else:
        regime_pattern = 1
        regime_len = -regime + 1
    prefix = (regime_pattern << config.es) | e
    prefix_len = 1 + regime_len + config.es  # leading 0 sign bit

    # Ideal unbounded pattern, as an exact rational scaled so that bit
    # (n-1) of the integer part is the sign position.
    ideal = (prefix + fraction) * Fraction(2) ** (n - prefix_len)
    pattern = round_half_even(ideal)
    pattern = min(max(pattern, config.minpos_pattern), config.maxpos_pattern)
    return _apply_sign(pattern, negative, config)


def _apply_sign(pattern: int, negative: bool, config: PositConfig) -> int:
    if negative:
        return (~pattern + 1) & config.mask
    return pattern
