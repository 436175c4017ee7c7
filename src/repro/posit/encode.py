"""Vectorized float64 → posit encoding with round-to-nearest-even.

The encoder mirrors SoftPosit's conversion semantics (the paper's
``convertFloatToP32``): the input is treated as an exact real, laid out as
an unbounded sign/regime/exponent/fraction bit string, rounded to
``nbits`` to nearest, ties to even, and clamped so that a nonzero finite
real never becomes zero or NaR (saturating at minpos / maxpos).  NaN and
infinities map to NaR.

The bit string comes straight from the float64 bit pattern: the biased
exponent gives the scale ``h = useed_log2 * k + e``, the regime ``k``
becomes the high bits of the body, and the exponent bits ``e`` and the 52
fraction bits are its tail.  One :func:`repro.bitops.shift_round` keeps
the top ``nbits - 1`` bits, with no Python-int big arithmetic.  The
scalar Fraction-based reference cross-checks it exhaustively for
8/16-bit posits and by property tests for 32/64-bit.
"""

from __future__ import annotations

import numpy as np

from repro.bitops import shift_round, twos_complement
from repro.posit.config import PositConfig


def encode(values, config: PositConfig) -> np.ndarray:
    """Encode float values into posit bit patterns (uint array).

    Parameters
    ----------
    values:
        Scalar or array of floats (any float dtype; converted to float64,
        which is exact for float16/32 inputs).
    config:
        Target posit format.
    """
    array = np.asarray(values, dtype=np.float64)
    scalar_input = array.ndim == 0
    array = np.atleast_1d(array)

    n = config.nbits
    es = config.es

    nar = np.isnan(array) | np.isinf(array)
    zero = array == 0.0
    negative = np.signbit(array) & ~zero
    magnitude = np.abs(array)

    # Saturation: |x| >= maxpos -> maxpos, 0 < |x| <= minpos -> minpos.
    # Every other finite nonzero value is a float64 normal whose regime
    # fits the body, which the general path below relies on.
    sat_hi = magnitude >= config.maxpos
    sat_lo = (magnitude <= config.minpos) & ~zero

    bits = magnitude.view(np.int64)
    k = ((bits >> 52) - 1023) >> es
    # The regime is k + 1 ones and a zero, or -k zeros and a one: run + 2
    # bits with run = k or -k - 1.  `unit` is its last bit in the body.
    run = np.minimum(k ^ (k >> 63), n - 3)
    unit = 1 << (n - 3 - run)
    regime = np.where(k < 0, unit, -2 * unit) & config.maxpos_pattern
    # The exponent bits e = h mod 2**es and the fraction: 1024 is a
    # multiple of 2**es, so the low bits of the biased exponent plus one
    # are e.  Posits whose n - 3 bits after the shortest regime outnumber
    # the tail's 52 + es lift the tail, so that drop stays >= 0.
    lift = max(n - 55 - es, 0)
    tail = ((bits + (1 << 52)) & ((1 << (52 + es)) - 1)) << lift
    pattern = shift_round(tail, run + (55 + es + lift - n), regime)

    # Clamp: never round a nonzero magnitude to zero or past maxpos.
    pattern = np.clip(pattern, config.minpos_pattern, config.maxpos_pattern).astype(np.uint64)

    # Specials and saturation override the general path.
    pattern = np.where(sat_hi, np.uint64(config.maxpos_pattern), pattern)
    pattern = np.where(sat_lo, np.uint64(config.minpos_pattern), pattern)
    pattern = np.where(negative, twos_complement(pattern, n), pattern)
    pattern = np.where(zero, np.uint64(config.zero_pattern), pattern)
    pattern = np.where(nar, np.uint64(config.nar_pattern), pattern)

    result = pattern.astype(config.dtype)
    if scalar_input:
        return result[0]
    return result
