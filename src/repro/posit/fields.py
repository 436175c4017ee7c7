"""Vectorized posit field decomposition and bit classification.

The paper's entire analysis is phrased in terms of *which field a flipped
bit lands in* (sign, regime body R_0..R_{k-1}, terminating regime bit R_k,
exponent, fraction).  Because posit field boundaries move with the value,
classification is per-element; everything here is vectorized over NumPy
arrays of bit patterns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.bitops import leading_run_length
from repro.posit.config import PositConfig


class PositField(enum.IntEnum):
    """Field a bit position belongs to within one particular posit."""

    SIGN = 0
    REGIME = 1        # R_0 .. R_{k-1}: the run of identical bits
    REGIME_TERM = 2   # R_k: the terminating (opposite) bit
    EXPONENT = 3
    FRACTION = 4

    def short_name(self) -> str:
        return {
            PositField.SIGN: "S",
            PositField.REGIME: "R",
            PositField.REGIME_TERM: "Rk",
            PositField.EXPONENT: "E",
            PositField.FRACTION: "F",
        }[self]


#: Coarse grouping used in several of the paper's plots, where R_k is
#: shown as part of the regime.
COARSE_FIELD_OF = {
    PositField.SIGN: PositField.SIGN,
    PositField.REGIME: PositField.REGIME,
    PositField.REGIME_TERM: PositField.REGIME,
    PositField.EXPONENT: PositField.EXPONENT,
    PositField.FRACTION: PositField.FRACTION,
}


@dataclass(frozen=True)
class FieldDecomposition:
    """Per-element posit field contents, all int64/uint64 arrays.

    Attributes
    ----------
    sign:
        0/1 sign bit.
    run:
        Number of identical leading regime bits (the paper's *k*).
    has_terminator:
        Whether an opposite bit R_k exists within the word.
    regime_len:
        Bits occupied by the regime including R_k when present.
    regime:
        The regime value *r* (``k-1`` when the run is ones, ``-k`` when
        zeros), read from the raw bits per the standard's direct form.
    exponent:
        Exponent value with truncated bits reading as zero (0..2**es-1).
    exponent_bits_present:
        How many exponent bits physically exist in the word (0..es).
    fraction_bits:
        Number of fraction bits *m* present (0..nbits-3-es).
    fraction:
        Unsigned integer contents of the fraction field.
    is_zero / is_nar:
        Special-pattern masks.
    """

    sign: np.ndarray
    run: np.ndarray
    has_terminator: np.ndarray
    regime_len: np.ndarray
    regime: np.ndarray
    exponent: np.ndarray
    exponent_bits_present: np.ndarray
    fraction_bits: np.ndarray
    fraction: np.ndarray
    is_zero: np.ndarray
    is_nar: np.ndarray


def decompose(bits, config: PositConfig) -> FieldDecomposition:
    """Split raw posit patterns into their fields, vectorized."""
    n = config.nbits
    work = np.asarray(bits).astype(np.uint64, copy=False)
    mask = np.uint64(config.mask)
    work = work & mask

    sign = ((work >> np.uint64(n - 1)) & np.uint64(1)).astype(np.int64)
    body_width = n - 1
    body = work & np.uint64(config.mask >> 1)

    run = leading_run_length(body, body_width).astype(np.int64)
    has_terminator = run < body_width
    regime_len = run + has_terminator.astype(np.int64)

    top_bit = ((body >> np.uint64(body_width - 1)) & np.uint64(1)).astype(np.int64)
    regime = np.where(top_bit == 1, run - 1, -run)

    rem = body_width - regime_len
    e_avail = np.minimum(rem, config.es)
    e_avail = np.maximum(e_avail, 0)
    # Exponent bits sit at [rem - e_avail, rem); pad truncated low bits
    # with zeros by shifting back up to es bits.
    shift_down = np.maximum(rem - e_avail, 0).astype(np.uint64)
    raw_exp = (body >> shift_down) & ((np.uint64(1) << e_avail.astype(np.uint64)) - np.uint64(1))
    exponent = (raw_exp << (config.es - e_avail).astype(np.uint64)).astype(np.int64)
    exponent = np.where(e_avail > 0, exponent, 0)

    m = np.maximum(rem - config.es, 0)
    frac_mask = (np.uint64(1) << m.astype(np.uint64)) - np.uint64(1)
    fraction = (body & frac_mask).astype(np.uint64)
    fraction = np.where(m > 0, fraction, np.uint64(0))

    is_zero = work == np.uint64(config.zero_pattern)
    is_nar = work == np.uint64(config.nar_pattern)

    return FieldDecomposition(
        sign=sign,
        run=run,
        has_terminator=np.asarray(has_terminator),
        regime_len=regime_len,
        regime=regime,
        exponent=exponent,
        exponent_bits_present=e_avail,
        fraction_bits=m,
        fraction=fraction,
        is_zero=np.asarray(is_zero),
        is_nar=np.asarray(is_nar),
    )


def classify_bit(bits, bit_index: int, config: PositConfig) -> np.ndarray:
    """Field of ``bit_index`` (LSB == 0) within each posit of ``bits``.

    Returns an int64 array of :class:`PositField` values.  Zero and NaR
    patterns are classified by the same geometric rules (their regime run
    spans the whole body), which matches how a fault lands in storage.
    Posits of up to 32 bits are classified from their run length alone
    (:func:`repro.posit.lean.lean_classify`).
    """
    n = config.nbits
    if not 0 <= bit_index < n:
        raise ValueError(f"bit_index must be in [0, {n}), got {bit_index}")
    from repro.posit.lean import LEAN_MAX_BITS, lean_classify

    if n <= LEAN_MAX_BITS:
        return lean_classify(bits, bit_index, config)
    fields = decompose(bits, config)
    return classify_bit_from_fields(fields, bit_index, config)


def classify_bit_from_fields(
    fields: FieldDecomposition, bit_index: int, config: PositConfig
) -> np.ndarray:
    """Same as :func:`classify_bit` given a precomputed decomposition."""
    n = config.nbits
    shape = np.shape(fields.sign)
    out = np.full(shape, PositField.FRACTION, dtype=np.int64)

    if bit_index == n - 1:
        out[...] = PositField.SIGN
        return out

    regime_low = n - 1 - fields.regime_len  # lowest bit of the regime field
    rem = n - 1 - fields.regime_len
    exp_low = rem - fields.exponent_bits_present

    in_regime = bit_index >= regime_low
    is_terminator = fields.has_terminator & (bit_index == regime_low)
    in_exponent = (~in_regime) & (bit_index >= exp_low)

    out = np.where(in_regime, PositField.REGIME, out)
    out = np.where(is_terminator, PositField.REGIME_TERM, out)
    out = np.where(in_exponent, PositField.EXPONENT, out)
    return out


def classify_all_bits(bits, config: PositConfig) -> np.ndarray:
    """Field map of every bit of every posit: shape (*bits.shape, nbits).

    ``result[..., j]`` is the field of bit ``j`` (LSB == 0).
    """
    fields = decompose(bits, config)
    shape = np.shape(np.asarray(bits))
    out = np.empty(shape + (config.nbits,), dtype=np.int64)
    for j in range(config.nbits):
        out[..., j] = classify_bit_from_fields(fields, j, config)
    return out


def regime_k(bits, config: PositConfig) -> np.ndarray:
    """The paper's regime size *k*: count of identical leading regime bits."""
    from repro.posit.lean import LEAN_MAX_BITS, lean_regime

    if config.nbits <= LEAN_MAX_BITS:
        return lean_regime(bits, config)
    return decompose(bits, config).run


def layout_string(pattern: int, config: PositConfig) -> str:
    """Render a pattern with field separators, e.g. ``0|10|00|0101...``.

    Used by the worked-example experiments to print figures 6, 12, 13, 15
    in the paper's notation.
    """
    n = config.nbits
    pattern = int(pattern) & config.mask
    bit_string = format(pattern, f"0{n}b")
    fields = decompose(np.array([pattern], dtype=np.uint64), config)
    regime_len = int(fields.regime_len[0])
    e_bits = int(fields.exponent_bits_present[0])
    parts = [bit_string[0]]
    cursor = 1
    parts.append(bit_string[cursor : cursor + regime_len])
    cursor += regime_len
    if e_bits:
        parts.append(bit_string[cursor : cursor + e_bits])
        cursor += e_bits
    if cursor < n:
        parts.append(bit_string[cursor:])
    return "|".join(part for part in parts if part)
