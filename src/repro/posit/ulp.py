"""ULP and spacing utilities for posit formats.

The spacing between adjacent representable values is the natural unit of
representation error, and for posits it varies with the regime (tapered
precision).  These helpers answer "how far apart are posits around x?" —
used by the accuracy analysis, by tests, and by anyone sizing tolerances
for posit-stored data.
"""

from __future__ import annotations

import math

import numpy as np

from repro.posit._reference import decode_exact
from repro.posit.config import PositConfig
from repro.posit.decode import decode
from repro.posit.encode import encode


def next_up(bits, config: PositConfig):
    """Pattern of the next larger representable value (NaR saturates).

    Posit patterns ordered as signed integers are value-ordered, so the
    successor is pattern + 1 — except maxpos, whose successor would be
    NaR and instead saturates (stays maxpos), matching the convention
    that no arithmetic path reaches NaR from a real.
    """
    work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(config.mask)
    successor = (work + np.uint64(1)) & np.uint64(config.mask)
    at_max = work == np.uint64(config.maxpos_pattern)
    is_nar = work == np.uint64(config.nar_pattern)
    result = np.where(at_max | is_nar, work, successor)
    return result.astype(config.dtype)


def next_down(bits, config: PositConfig):
    """Pattern of the next smaller representable value (symmetric rules)."""
    work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(config.mask)
    predecessor = (work - np.uint64(1)) & np.uint64(config.mask)
    at_min = work == np.uint64((config.nar_pattern + 1) & config.mask)  # most negative real
    is_nar = work == np.uint64(config.nar_pattern)
    result = np.where(at_min | is_nar, work, predecessor)
    return result.astype(config.dtype)


def ulp(bits, config: PositConfig) -> np.ndarray:
    """Distance to the next larger representable value, per element.

    For maxpos (no successor) the distance to the *predecessor* is
    returned, mirroring how IEEE ulp conventions handle the top of the
    range; NaR yields NaN.  Formats with more than 52 fraction bits
    (posit64) take each gap from exact rational decodes, since float64
    cannot tell their neighbours apart.
    """
    work = np.asarray(bits).astype(np.uint64, copy=False) & np.uint64(config.mask)
    at_max = work == np.uint64(config.maxpos_pattern)
    neighbour = np.where(at_max, next_down(work, config), next_up(work, config))
    if config.max_fraction_bits > 52:
        spacing = _exact_gaps(work, neighbour, config)
    else:
        values = np.asarray(decode(work, config), dtype=np.float64)
        spacing = np.abs(np.asarray(decode(neighbour, config), dtype=np.float64) - values)
    return np.where(work == np.uint64(config.nar_pattern), np.nan, spacing)


def _exact_gaps(work: np.ndarray, neighbour: np.ndarray, config: PositConfig) -> np.ndarray:
    """|neighbour - work| per element, rounded once to float64."""
    gaps = []
    for pattern, other in zip(work.ravel().tolist(), neighbour.ravel().tolist()):
        value = decode_exact(pattern, config)
        if value is None:
            gaps.append(math.nan)
        else:
            gaps.append(float(abs(decode_exact(other, config) - value)))
    return np.array(gaps, dtype=np.float64).reshape(work.shape)


def spacing_at(values, config: PositConfig) -> np.ndarray:
    """Posit spacing around arbitrary real values (after rounding in)."""
    patterns = np.asarray(encode(np.asarray(values, dtype=np.float64), config))
    return ulp(patterns, config)


def relative_spacing_at(values, config: PositConfig) -> np.ndarray:
    """spacing / |value| — the local relative resolution.

    Minimal near |x| = 1 (the posit sweet spot) and growing with the
    regime; infinite at zero.
    """
    array = np.asarray(values, dtype=np.float64)
    spacing = spacing_at(array, config)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = spacing / np.abs(array)
    return np.where(array == 0, np.inf, rel)
