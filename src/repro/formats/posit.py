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
    decompose,
    layout_string as posit_layout_string,
)
from repro.posit.lean import LEAN_MAX_BITS, lean_classify, lean_decode, lean_regime
from repro.posit.rounding import round_to_posit


def posit_spec_name(config: PositConfig) -> str:
    """Canonical spec string of a posit configuration."""
    return f"posit{config.nbits}" if config.es == 2 else f"posit{config.nbits}es{config.es}"


class PositTarget(NumberFormat):
    """Posit storage (float -> posit on store, posit -> float on load).

    Posits of up to 32 bits decode, classify and report regimes through
    the table-free run-length codec of :mod:`repro.posit.lean`; wider
    posits go through :func:`repro.posit.fields.decompose`.
    """

    def __init__(self, config: PositConfig, backend: str | None = None) -> None:
        self.config = config
        self.name = posit_spec_name(config)
        self.nbits = config.nbits
        super().__init__(backend)

    @property
    def dtype(self) -> np.dtype:
        return self.config.dtype

    def encode_raw(self, values) -> np.ndarray:
        return posit_encode(np.asarray(values, dtype=np.float64), self.config)

    @property
    def _lean(self) -> bool:
        return self.nbits <= LEAN_MAX_BITS

    def decode_raw(self, bits) -> np.ndarray:
        if self._lean:
            return lean_decode(bits, self.config)
        return np.asarray(posit_decode(bits, self.config), dtype=np.float64)

    def round_trip_raw(self, values) -> np.ndarray:
        array = np.asarray(values, dtype=np.float64)
        if array.ndim == 0:
            # A scalar keeps the result type of its codec backend.
            return super().round_trip_raw(values)
        return round_to_posit(array, self.config)

    def classify_raw(self, bits, bit_index: int) -> np.ndarray:
        if self._lean:
            return lean_classify(bits, bit_index, self.config)
        return posit_classify_bit(bits, bit_index, self.config)

    def regime_raw(self, bits) -> np.ndarray:
        if self._lean:
            return lean_regime(bits, self.config)
        return decompose(bits, self.config).run

    def field_label(self, field_id: int) -> str:
        return PositField(field_id).name

    def layout_string(self, pattern: int) -> str:
        return posit_layout_string(pattern, self.config)

    def describe(self) -> str:
        return self.config.describe()

    @property
    def field_enum(self):
        return PositField
