"""Fixed-posit number formats (Gohil et al., 2021).

The fixed-posit representation keeps the posit value function but fixes
the regime field to a constant width ``r``, trading tapered precision
for hardware-friendly static field boundaries::

     S | R0 .. R(r-1) | E0 .. E(es-1) | F0 F1 ...
    sign  regime (r bits)  exponent      fraction (nbits-1-r-es bits)

The regime field stores the regime value ``k`` directly as an ``r``-bit
biased integer (excess ``2**(r-1)``; no run-length encoding, no
terminator), so ``k`` ranges over ``[-2**(r-1), 2**(r-1) - 1]`` and the
represented magnitude is ``(1 + f) * 2**(k * 2**es + e)`` — exactly the
posit scale law with the regime's reach clipped by the field width.
Negative values are the two's complement of the whole word, zero is the
all-zero pattern and NaR is the sign bit alone, all as in standard
posits; rounding is round-to-nearest-even with posit-style saturation
(never to zero, never to NaR).  Reserving the all-zero pattern for zero
steals the code point of ``2**min_scale``, so the smallest positive
value (``minpos``) is pattern 1: ``(1 + 2**-F) * 2**min_scale``.

Field classification is static (like IEEE) but uses the posit field
vocabulary, so campaign analysis compares fixed-posit regime hits
against true-posit regime hits directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.bitops import shift_round, uint_dtype_for
from repro.formats.base import NumberFormat
from repro.posit.fields import PositField


@dataclass(frozen=True)
class FixedPositConfig:
    """Immutable description of a fixed-posit format.

    Parameters
    ----------
    nbits:
        Total width in bits.
    es:
        Exponent field width (posit standard uses 2).
    r:
        Regime field width; the regime value is an ``r``-bit
        two's-complement integer.
    """

    nbits: int
    es: int = 2
    r: int = 2

    def __post_init__(self) -> None:
        if not 4 <= self.nbits <= 64:
            raise ValueError(f"fixed-posit nbits must be in [4, 64], got {self.nbits}")
        if not 0 <= self.es <= 4:
            raise ValueError(f"fixed-posit es must be in [0, 4], got {self.es}")
        if not 1 <= self.r <= 8:
            raise ValueError(f"fixed-posit r must be in [1, 8], got {self.r}")
        if self.fraction_bits < 1:
            raise ValueError(
                f"fixed-posit({self.nbits},es={self.es},r={self.r}) leaves "
                f"{self.fraction_bits} fraction bits; need at least 1"
            )
        if self.max_scale > 1023 or self.min_scale < -1022:
            raise ValueError(
                "fixed-posit scale range 2^[{}, {}] exceeds what float64 "
                "represents exactly".format(self.min_scale, self.max_scale)
            )

    @property
    def fraction_bits(self) -> int:
        return self.nbits - 1 - self.r - self.es

    @property
    def k_max(self) -> int:
        return (1 << (self.r - 1)) - 1

    @property
    def k_min(self) -> int:
        return -(1 << (self.r - 1))

    @property
    def max_scale(self) -> int:
        """Largest power-of-two scale: k_max regime with all-ones exponent."""
        return self.k_max * (1 << self.es) + (1 << self.es) - 1

    @property
    def min_scale(self) -> int:
        """Smallest power-of-two scale: k_min regime with zero exponent."""
        return self.k_min * (1 << self.es)

    @property
    def mask(self) -> int:
        return (1 << self.nbits) - 1

    @property
    def sign_mask(self) -> int:
        return 1 << (self.nbits - 1)

    @property
    def nar_pattern(self) -> int:
        return self.sign_mask

    @property
    def dtype(self) -> np.dtype:
        return uint_dtype_for(self.nbits)

    def describe(self) -> str:
        return (
            f"fixedposit{self.nbits} (es={self.es}, r={self.r}, "
            f"{self.fraction_bits} fraction bits, scale 2^[{self.min_scale}, "
            f"{self.max_scale}])"
        )


def fixedposit_spec_name(config: FixedPositConfig) -> str:
    """Canonical spec string of a fixed-posit configuration."""
    return f"fixedposit({config.nbits},es={config.es},r={config.r})"


class FixedPositTarget(NumberFormat):
    """Fixed-posit storage with static field boundaries."""

    def __init__(self, config: FixedPositConfig) -> None:
        self.config = config
        self.name = fixedposit_spec_name(config)
        self.nbits = config.nbits
        super().__init__()

    @property
    def dtype(self) -> np.dtype:
        return self.config.dtype

    @cached_property
    def _maxpos_pattern(self) -> int:
        # Biased regime all ones, exponent all ones, fraction all ones.
        return (1 << (self.config.nbits - 1)) - 1

    @cached_property
    def _minpos_pattern(self) -> int:
        # Biased regime 0 (k = k_min), zero exponent, fraction 1: the
        # all-zero pattern is reserved for zero.
        return 1

    def encode_raw(self, values) -> np.ndarray:
        c = self.config
        x = np.asarray(values, dtype=np.float64)
        a = np.abs(x)
        finite = np.isfinite(x) & (a != 0)

        # A positive pattern is (scale - min_scale) << F | fraction: the
        # float64 bit pattern less the bits of 2**min_scale, rounded from
        # 52 fraction bits to F (a carry runs into the scale).  Layouts
        # with more than 52 fraction bits shift left instead.
        bits = a.view(np.int64)
        scale = (bits >> 52) - 1023
        fbits = c.fraction_bits
        tail = (bits - ((1023 + c.min_scale) << 52)) << max(fbits - 52, 0)
        pattern = shift_round(tail, max(52 - fbits, 0))
        # Posit-style saturation: overflow to maxpos, underflow to minpos
        # (never to zero, never to NaR).  minpos also absorbs the stolen
        # pattern-0 code point (2**min_scale rounds up to pattern 1), and
        # maxpos a carry out of the top scale.
        pattern = np.where(scale > c.max_scale, self._maxpos_pattern, pattern)
        pattern = np.where(scale < c.min_scale, self._minpos_pattern, pattern)
        pattern = np.clip(pattern, self._minpos_pattern, self._maxpos_pattern).astype(np.uint64)
        # Negative values are the two's complement of the whole word.
        negative = np.signbit(x) & finite
        twos = (np.uint64(c.mask) - pattern + np.uint64(1)) & np.uint64(c.mask)
        pattern = np.where(negative, twos, pattern)
        pattern = np.where(finite, pattern, np.uint64(c.nar_pattern))
        pattern = np.where(a == 0, np.uint64(0), pattern)
        return pattern.astype(c.dtype)

    def decode_raw(self, bits) -> np.ndarray:
        c = self.config
        fbits = c.fraction_bits
        work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(c.mask)
        sign = (work >> np.uint64(c.nbits - 1)) & np.uint64(1)
        magnitude = np.where(
            sign == 1, (np.uint64(c.mask) - work + np.uint64(1)) & np.uint64(c.mask), work
        )
        k_field = ((magnitude >> np.uint64(c.es + fbits)) & np.uint64((1 << c.r) - 1)).astype(
            np.int64
        )
        k = k_field + c.k_min
        e = ((magnitude >> np.uint64(fbits)) & np.uint64((1 << c.es) - 1)).astype(np.int64)
        frac = (magnitude & np.uint64((1 << fbits) - 1)).astype(np.float64)

        value = np.ldexp(1.0 + frac * 2.0**-fbits, k * (1 << c.es) + e)
        value = np.where(sign == 1, -value, value)
        value = np.where(work == np.uint64(0), 0.0, value)
        value = np.where(work == np.uint64(c.nar_pattern), np.nan, value)
        return value

    def classify_raw(self, bits, bit_index: int) -> np.ndarray:
        c = self.config
        if bit_index == c.nbits - 1:
            field = PositField.SIGN
        elif bit_index >= c.es + c.fraction_bits:
            field = PositField.REGIME
        elif bit_index >= c.fraction_bits:
            field = PositField.EXPONENT
        else:
            field = PositField.FRACTION
        return np.full(np.shape(np.asarray(bits)), int(field), dtype=np.int64)

    def regime_raw(self, bits) -> np.ndarray:
        """The regime field width is fixed: every element reports ``r``."""
        return np.full(np.shape(np.asarray(bits)), self.config.r, dtype=np.int64)

    def field_label(self, field_id: int) -> str:
        return PositField(field_id).name

    def layout_string(self, pattern: int) -> str:
        c = self.config
        bit_string = format(int(pattern) & c.mask, f"0{c.nbits}b")
        parts = [bit_string[0], bit_string[1 : 1 + c.r]]
        if c.es:
            parts.append(bit_string[1 + c.r : 1 + c.r + c.es])
        parts.append(bit_string[1 + c.r + c.es :])
        return "|".join(part for part in parts if part)

    def describe(self) -> str:
        return self.config.describe()

    @property
    def field_enum(self):
        return PositField
