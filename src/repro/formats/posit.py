"""Posit number formats behind the :class:`NumberFormat` protocol."""

from __future__ import annotations

import numpy as np

from repro.formats.base import NumberFormat
from repro.posit.config import PositConfig
from repro.posit.decode import decode as posit_decode
from repro.posit.encode import encode as posit_encode
from repro.posit.fields import (
    PositField,
    classify_bit as posit_classify_bit,
    layout_string as posit_layout_string,
    regime_k,
)
from repro.posit.rounding import round_to_posit


def posit_spec_name(config: PositConfig) -> str:
    """Canonical spec string of a posit configuration."""
    return f"posit{config.nbits}" if config.es == 2 else f"posit{config.nbits}es{config.es}"


class PositTarget(NumberFormat):
    """Posit storage (float -> posit on store, posit -> float on load).

    The raw codec is :mod:`repro.posit`'s, which decodes, classifies and
    reports regimes through the table-free run-length codec of
    :mod:`repro.posit.lean` up to 32 bits.
    """

    def __init__(self, config: PositConfig) -> None:
        self.config = config
        self.name = posit_spec_name(config)
        self.nbits = config.nbits
        super().__init__()

    @property
    def dtype(self) -> np.dtype:
        return self.config.dtype

    def encode_raw(self, values) -> np.ndarray:
        return posit_encode(np.asarray(values, dtype=np.float64), self.config)

    def decode_raw(self, bits) -> np.ndarray:
        return np.asarray(posit_decode(bits, self.config), dtype=np.float64)

    def round_trip_raw(self, values) -> np.ndarray:
        array = np.asarray(values, dtype=np.float64)
        if array.ndim == 0:
            # A scalar keeps the result type of its codec (see from_bits).
            return super().round_trip_raw(values)
        return round_to_posit(array, self.config)

    def classify_raw(self, bits, bit_index: int) -> np.ndarray:
        return posit_classify_bit(bits, bit_index, self.config)

    def regime_raw(self, bits) -> np.ndarray:
        return regime_k(bits, self.config)

    def field_label(self, field_id: int) -> str:
        return PositField(field_id).name

    def layout_string(self, pattern: int) -> str:
        return posit_layout_string(pattern, self.config)

    def describe(self) -> str:
        return self.config.describe()

    @property
    def field_enum(self):
        return PositField
