"""Posit format configuration.

The Posit Standard (2022) fixes ``es = 2`` for every width, so the
standard types are ``posit8``/``posit16``/``posit32``/``posit64`` with two
exponent bits each.  Earlier drafts (and some literature) used
width-dependent ``es``; the ``es`` parameter is kept generic so those
variants — and the paper's future-work widths — can be studied with the
same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bitops import uint_dtype_for


@dataclass(frozen=True)
class PositConfig:
    """Immutable description of a posit format.

    Parameters
    ----------
    nbits:
        Total width in bits (3..64).
    es:
        Number of exponent bits (the standard mandates 2).
    """

    nbits: int
    es: int = 2

    def __post_init__(self) -> None:
        if not 3 <= self.nbits <= 64:
            raise ValueError(f"posit nbits must be in [3, 64], got {self.nbits}")
        if not 0 <= self.es <= 4:
            raise ValueError(f"posit es must be in [0, 4], got {self.es}")

    # -- derived constants -------------------------------------------------

    @property
    def useed_log2(self) -> int:
        """log2 of useed = 2**(2**es); the regime scales by useed per bit."""
        return 1 << self.es

    @property
    def mask(self) -> int:
        """All-ones mask over the posit width, as a Python int."""
        return (1 << self.nbits) - 1

    @property
    def sign_mask(self) -> int:
        """Mask selecting the sign bit."""
        return 1 << (self.nbits - 1)

    @property
    def nar_pattern(self) -> int:
        """Bit pattern of NaR (Not a Real): sign bit set, all else zero."""
        return self.sign_mask

    @property
    def zero_pattern(self) -> int:
        """Bit pattern of zero."""
        return 0

    @property
    def maxpos_pattern(self) -> int:
        """Bit pattern of the largest positive posit (0111...1)."""
        return self.mask >> 1

    @property
    def minpos_pattern(self) -> int:
        """Bit pattern of the smallest positive posit (000...01)."""
        return 1

    @property
    def max_scale(self) -> int:
        """Largest power-of-two scale: maxpos == 2**max_scale."""
        return self.useed_log2 * (self.nbits - 2)

    @property
    def maxpos(self) -> float:
        """Value of the largest positive posit, as a float."""
        return float(2.0 ** self.max_scale)

    @property
    def minpos(self) -> float:
        """Value of the smallest positive posit, as a float."""
        return float(2.0 ** (-self.max_scale))

    @property
    def max_fraction_bits(self) -> int:
        """Most fraction bits any value of this format can carry."""
        return max(self.nbits - 3 - self.es, 0)

    @property
    def dtype(self) -> np.dtype:
        """NumPy unsigned dtype wide enough to store a bit pattern."""
        return uint_dtype_for(self.nbits)

    # -- convenience -------------------------------------------------------

    def describe(self) -> str:
        """Single-line human-readable summary of the format."""
        return (
            f"posit{self.nbits} (es={self.es}, useed=2^{self.useed_log2}, "
            f"maxpos=2^{self.max_scale}, up to {self.max_fraction_bits} "
            f"fraction bits)"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"posit{self.nbits}es{self.es}"


@lru_cache(maxsize=None)
def standard_config(nbits: int) -> PositConfig:
    """The 2022-standard configuration for a given width (es = 2)."""
    return PositConfig(nbits=nbits, es=2)


POSIT8 = standard_config(8)
POSIT16 = standard_config(16)
POSIT32 = standard_config(32)
POSIT64 = standard_config(64)
