"""Special posit values and predicates (NaR, zero, minpos/maxpos)."""

from __future__ import annotations

import numpy as np

from repro.posit.config import PositConfig


def is_nar(bits, config: PositConfig) -> np.ndarray:
    """True where the pattern is NaR (sign bit set, all others zero)."""
    work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(config.mask)
    return work == np.uint64(config.nar_pattern)


def is_zero(bits, config: PositConfig) -> np.ndarray:
    """True where the pattern is exactly zero."""
    work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(config.mask)
    return work == np.uint64(config.zero_pattern)


def nar(config: PositConfig) -> np.integer:
    """The NaR pattern as a NumPy scalar of the storage dtype."""
    return config.dtype.type(config.nar_pattern)


def zero(config: PositConfig) -> np.integer:
    """The zero pattern as a NumPy scalar of the storage dtype."""
    return config.dtype.type(config.zero_pattern)


def maxpos(config: PositConfig) -> np.integer:
    """Pattern of the largest positive value."""
    return config.dtype.type(config.maxpos_pattern)


def minpos(config: PositConfig) -> np.integer:
    """Pattern of the smallest positive value."""
    return config.dtype.type(config.minpos_pattern)
