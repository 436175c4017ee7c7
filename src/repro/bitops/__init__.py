"""Exact, vectorized bit-manipulation primitives.

NumPy has no count-leading-zeros / popcount ufuncs, and the float-log
work-arounds are inexact near powers of two.  This package provides
lookup-table based implementations that are exact for 8/16/32/64-bit
unsigned integers and fully vectorized, as required by the posit decoder
(regime run-length detection) and the fault-injection analysis (bit masks,
two's complement, field extraction).
"""

from repro.bitops.core import (
    bit_mask,
    clz,
    clz32,
    clz64,
    ctz,
    extract_bits,
    leading_run_length,
    popcount,
    set_bits_string,
    shift_round,
    sign_bit,
    to_signed,
    to_unsigned,
    twos_complement,
    uint_dtype_for,
)

__all__ = [
    "bit_mask",
    "clz",
    "clz32",
    "clz64",
    "ctz",
    "extract_bits",
    "leading_run_length",
    "popcount",
    "set_bits_string",
    "shift_round",
    "sign_bit",
    "to_signed",
    "to_unsigned",
    "twos_complement",
    "uint_dtype_for",
]
