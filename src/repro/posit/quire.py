"""Quire: the posit standard's exact accumulator.

The quire is a wide fixed-point register that accumulates sums and dot
products without intermediate rounding; only the final conversion back to
posit rounds.  The standard sizes it at 16*nbits bits, enough to hold any
product of two posits with (nbits - 1) * 2**(es + 2) ... in practice the
defining property is *exactness*, which this implementation guarantees by
accumulating in arbitrary-precision rational arithmetic keyed to the
fixed-point grid.

This module exists because a posit library without a quire would not be a
credible drop-in replacement (reproducibility of dot products is one of
the headline posit claims the paper's introduction cites), and because it
provides the exact baseline used to measure error in the example
applications.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.posit._reference import decode_exact, encode_exact
from repro.posit.config import PositConfig


class Quire:
    """Exact accumulator for one posit format.

    The accumulator state is a Fraction, which on the quire's dyadic grid
    is always exact.  NaR poisons the accumulator until :meth:`clear`.
    """

    def __init__(self, config: PositConfig) -> None:
        self.config = config
        self._sum = Fraction(0)
        self._nar = False

    # -- state -------------------------------------------------------------

    @property
    def is_nar(self) -> bool:
        """Whether the accumulator has been poisoned by NaR."""
        return self._nar

    def clear(self) -> None:
        """Reset to exact zero."""
        self._sum = Fraction(0)
        self._nar = False

    def value_exact(self) -> Fraction | None:
        """The exact accumulated value (None when poisoned)."""
        return None if self._nar else self._sum

    # -- accumulation --------------------------------------------------------

    def add_posit(self, pattern: int) -> "Quire":
        """Accumulate a single posit value."""
        value = decode_exact(int(pattern), self.config)
        if value is None:
            self._nar = True
        elif not self._nar:
            self._sum += value
        return self

    def add_product(self, a: int, b: int) -> "Quire":
        """Accumulate the exact product of two posits (fused MAC)."""
        va = decode_exact(int(a), self.config)
        vb = decode_exact(int(b), self.config)
        if va is None or vb is None:
            self._nar = True
        elif not self._nar:
            self._sum += va * vb
        return self

    # -- termination ---------------------------------------------------------

    def to_posit(self) -> int:
        """Round the accumulated value to the nearest posit pattern."""
        if self._nar:
            return self.config.nar_pattern
        return encode_exact(self._sum, self.config)


def dot(a, b, config: PositConfig) -> int:
    """Exact dot product of two posit-pattern vectors, rounded once.

    This is the quire's flagship operation: sum(a[i] * b[i]) with no
    intermediate rounding.
    """
    a_arr = np.asarray(a).reshape(-1)
    b_arr = np.asarray(b).reshape(-1)
    if a_arr.shape != b_arr.shape:
        raise ValueError(f"shape mismatch: {a_arr.shape} vs {b_arr.shape}")
    quire = Quire(config)
    for pa, pb in zip(a_arr, b_arr):
        quire.add_product(int(pa), int(pb))
    return quire.to_posit()


def total(values, config: PositConfig) -> int:
    """Exact sum of posit patterns, rounded once at the end."""
    quire = Quire(config)
    for pattern in np.asarray(values).reshape(-1):
        quire.add_posit(int(pattern))
    return quire.to_posit()
