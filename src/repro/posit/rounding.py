"""Posit rounding in the float domain: the stored value, without bits.

Storing a float in posit memory and loading it back (the paper's
Section 4.1.2 conversion) is ``decode(encode(x))``.  Building the bit
pattern and decoding it again costs ~80 µs on a 100-value posit32
vector against ~12 µs here, which dominates solvers that store a short
vector every iteration.  For most inputs the same value comes from
rounding the significand directly.

A finite non-zero ``x`` has scale ``h`` (``2**h <= |x| < 2**(h+1)``)
and regime ``k = h >> es``.  Its regime field takes ``k + 2`` bits for
``k >= 0`` and ``1 - k`` for ``k < 0``, which leaves
``fb = nbits - 1 - es - rlen`` fraction bits.  When ``fb >= 1`` the
posit value is ``rint(x * 2**(fb - h)) * 2**(h - fb)``:

* ``np.rint`` rounds half to even, and the parity of the integer
  significand is the parity of the pattern's last fraction bit, so the
  tie breaks the way the encoder's ``shift_round`` of the bit string
  does;
* a significand that rounds up to ``2**(fb + 1)`` gives ``2**(h + 1)``,
  which is exactly the pattern carry into the next binade;
* ``fb >= 1`` already implies ``minpos < |x| < maxpos``, so neither
  saturation clamp can apply.

Every other element (NaN/inf, saturation, and the long regimes whose
exponent bits are truncated, where pattern ties stop matching ``rint``)
goes through ``decode(encode(...))`` as one subset call.  Zeros store as
``+0.0``.
"""

from __future__ import annotations

import numpy as np

from repro.posit.config import PositConfig
from repro.posit.decode import decode
from repro.posit.encode import encode


def round_to_posit(values, config: PositConfig) -> np.ndarray:
    """The value each input takes when stored as a posit and loaded back.

    Bit-identical to ``decode(encode(values, config), config)``.

    Parameters
    ----------
    values:
        Array of floats (converted to float64); the result keeps its
        shape, as a float64 array.
    config:
        Target posit format.
    """
    x = np.asarray(values, dtype=np.float64)
    flat = x.reshape(-1)
    es = config.es
    _, exp = np.frexp(flat)
    h = exp - 1
    k = h >> es
    # One's-complement magnitude of k (k, or -k-1 for k < 0; frexp's
    # exponents are int32), so the regime length k+2 / 1-k is run+2.
    run = k ^ (k >> 31)
    shift = (config.nbits - 3 - es) - run - h  # fb - h
    # +0.0 turns a stored -0.0 into the posit's single zero.
    out = np.ldexp(np.rint(np.ldexp(flat, shift)), -shift) + 0.0
    # fb >= 1; frexp reports exponent 0 for NaN/inf, so test finiteness.
    rest = (run > config.nbits - 4 - es) | ~np.isfinite(flat)
    if rest.any():
        out[rest] = decode(encode(flat[rest], config), config)
    return out.reshape(x.shape)
