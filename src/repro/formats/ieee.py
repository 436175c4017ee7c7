"""IEEE-754-style number formats behind the :class:`NumberFormat` protocol.

Covers the native widths (binary16/32/64), bfloat16, and arbitrary
``binary(e,f)`` layouts served by the software codec in
:mod:`repro.ieee.bits` (any exponent width up to 11 and fraction width
up to 52 — every layout float64 hosts exactly).
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import NumberFormat
from repro.ieee.bits import bits_to_float, float_to_bits, is_hardware_layout
from repro.ieee.fields import IEEEField, field_of_bit, layout_string as ieee_layout_string
from repro.ieee.formats import IEEEFormat

#: Registry names of the native layouts (the seed repo's public names).
CANONICAL_IEEE_NAMES = {
    "binary16": "ieee16",
    "binary32": "ieee32",
    "binary64": "ieee64",
    "bfloat16": "bfloat16",
}


def ieee_spec_name(fmt: IEEEFormat) -> str:
    """Canonical spec string of an IEEE-style format."""
    return CANONICAL_IEEE_NAMES.get(
        fmt.name, f"binary({fmt.exponent_bits},{fmt.fraction_bits})"
    )


class IEEETarget(NumberFormat):
    """IEEE-754 (or bfloat16, or custom ``binary(e,f)``) storage."""

    def __init__(self, fmt: IEEEFormat) -> None:
        self.format = fmt
        self.name = ieee_spec_name(fmt)
        self.nbits = fmt.nbits
        super().__init__()

    @property
    def _hardware_layout(self) -> bool:
        return is_hardware_layout(self.format)

    @property
    def dtype(self) -> np.dtype:
        return self.format.dtype

    def encode_raw(self, values) -> np.ndarray:
        return float_to_bits(np.asarray(values), self.format)

    def decode_raw(self, bits) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return bits_to_float(bits, self.format).astype(np.float64)

    def classify_raw(self, bits, bit_index: int) -> np.ndarray:
        field = field_of_bit(bit_index, self.format)
        return np.full(np.shape(np.asarray(bits)), int(field), dtype=np.int64)

    def field_label(self, field_id: int) -> str:
        return IEEEField(field_id).name

    def layout_string(self, pattern: int) -> str:
        return ieee_layout_string(pattern, self.format)

    def describe(self) -> str:
        return self.format.describe()

    @property
    def field_enum(self):
        return IEEEField
