"""Vectorized posit → float64 decoding.

Implements the 2022 standard's direct formula (the paper's Eq. 2)

    p = ((1 - 3s) + f) * 2**((1 - 2s) * (useed_log2 * r + e + s))

on raw bit patterns, without two's-complementing negatives.  The scalar
Fraction-based reference in :mod:`repro.posit._reference` cross-checks
this (and the classic two's-complement form) in the test suite.

Posits of up to 32 bits decode through the table-free run-length codec
(:func:`repro.posit.lean.lean_decode`), wider ones through their field
decomposition (:func:`decode_fields`), which stays the reference the
lean codec is checked against.  Results are exact float64 values for
every posit of width <= 32 (their fractions have at most 27 bits) and
nearest-float64 for posit64 values whose fraction exceeds 52 bits.
"""

from __future__ import annotations

import numpy as np

from repro.posit.config import PositConfig
from repro.posit.fields import FieldDecomposition, decompose
from repro.posit.lean import LEAN_MAX_BITS, lean_decode


def scale_of(fields: FieldDecomposition, config: PositConfig) -> np.ndarray:
    """Signed power-of-two scale per element: (1-2s)(useed_log2*r+e+s)."""
    s = fields.sign
    return (1 - 2 * s) * (config.useed_log2 * fields.regime + fields.exponent + s)


def decode(bits, config: PositConfig) -> np.ndarray:
    """Decode posit bit patterns to float64 (NaR → NaN, zero → 0.0)."""
    work = np.asarray(bits)
    scalar_input = work.ndim == 0
    work = np.atleast_1d(work)
    if config.nbits <= LEAN_MAX_BITS:
        values = lean_decode(work, config)
    else:
        values = decode_fields(decompose(work, config), config)
    if scalar_input:
        return values[0]
    return values


def decode_fields(fields: FieldDecomposition, config: PositConfig) -> np.ndarray:
    """The float64 values of already decomposed posits (see :func:`decode`)."""
    s = fields.sign
    m = fields.fraction_bits
    # Fold the mantissa into a single integer so the one uint64 ->
    # float64 conversion is the only rounding (posit64 fractions exceed
    # 52 bits; adding (1-3s) + f in floats would double-round):
    #   s = 0: (1+f)      * 2**scale = (2**m     + f_int) * 2**(scale-m)
    #   s = 1: ((1-3)+f)  * 2**scale = -(2**(m+1) - f_int) * 2**(scale-m)
    m_u = m.astype(np.uint64)
    positive_int = (np.uint64(1) << m_u) + fields.fraction
    negative_int = (np.uint64(1) << (m_u + np.uint64(1))) - fields.fraction
    combined = np.where(s == 0, positive_int, negative_int)
    sign_factor = np.where(s == 0, 1.0, -1.0)
    scale = scale_of(fields, config).astype(np.int64)

    values = sign_factor * np.ldexp(combined.astype(np.float64), scale - m)
    values = np.where(fields.is_zero, 0.0, values)
    return np.where(fields.is_nar, np.nan, values)

