"""Table-free posit codec for widths up to 32 bits: one leading-run count.

Every field boundary of a posit follows from one number, the length of
its regime run.  Inverting the body (the bits below the sign) when its
top bit is set turns a run of ones into a run of zeros, so the run ends
at the highest set bit of that *run-normalized* body.  Its bit length
``L`` comes from one ``np.frexp``, exact because a body of at most 31
bits is an exact float64:

* the run length is ``nbits - 1 - L``;
* the terminating regime bit R_k sits at bit ``L - 1`` (there is none
  when ``L == 0``, the run then fills the body);
* the ``L - 1`` bits below it hold the exponent, then the fraction.

So a bit's field is a comparison of its position with ``L`` alone
(:func:`lean_classify`), and decoding is integer arithmetic: the bits
below R_k, shifted so the exponent lands on float64's exponent field and
the fraction on its mantissa, plus the regime's scale, *are* the float64
bit pattern of a positive posit (:func:`lean_decode`).  Negative
patterns use the standard's direct form on the raw bits,
``(f - 2) * 2**-(scale + 1)``, which is the same sum negated, so one
scan serves every field and both signs.  Every posit of at most 32 bits
is an exact normal float64, so the result is bit-identical to
:func:`repro.posit.decode.decode_fields` of the decomposition;
:func:`repro.posit.fields.decompose` stays the reference these are
checked against, and serves wider posits.  :func:`repro.posit.decode`,
:func:`repro.posit.classify_bit` and :func:`repro.posit.regime_k` route
posits of at most 32 bits through here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.posit.config import PositConfig
from repro.posit.fields import PositField

#: Widest posit the lean codec serves (its body must be an exact float64).
LEAN_MAX_BITS = 32

_MANTISSA_BITS = 52
_BIAS_BITS = 1023 << _MANTISSA_BITS
_NAN_BITS = int(np.array(np.nan).view(np.int64))


def run_bit_length(bits, config: PositConfig) -> np.ndarray:
    """Bit length ``L`` of each run-normalized body, as int64.

    The regime run is ``nbits - 1 - L`` bits long; see the module
    docstring for the fields that follow from ``L``.
    """
    body = np.asarray(bits).astype(np.int64) & (config.mask >> 1)
    return _bit_length(body, config.nbits - 1)


def _bit_length(body: np.ndarray, width: int) -> np.ndarray:
    top = body >> (width - 1)
    normalized = body ^ (-top & ((1 << width) - 1))
    return np.frexp(normalized)[1].astype(np.int64)


def lean_regime(bits, config: PositConfig) -> np.ndarray:
    """Regime run length *k* per element (``decompose(...).run``)."""
    return (config.nbits - 1) - run_bit_length(bits, config)


@lru_cache(maxsize=None)
def _fields_by_length(config: PositConfig, bit_index: int) -> np.ndarray:
    """Field of ``bit_index`` for every run-normalized bit length ``L``."""
    # R_k sits at bit L - 1: the regime run lies above it, then es
    # exponent bits, then the fraction.
    terminator = np.arange(config.nbits, dtype=np.int64) - 1
    fields = np.full(terminator.shape, int(PositField.FRACTION), dtype=np.int64)
    fields[bit_index >= terminator - config.es] = PositField.EXPONENT
    fields[bit_index == terminator] = PositField.REGIME_TERM
    fields[bit_index > terminator] = PositField.REGIME
    if bit_index == config.nbits - 1:
        fields[:] = PositField.SIGN
    fields.flags.writeable = False
    return fields


def lean_classify(bits, bit_index: int, config: PositConfig) -> np.ndarray:
    """Field of ``bit_index`` (LSB == 0) in each pattern, as ``PositField`` ids."""
    if not 0 <= bit_index < config.nbits:
        raise ValueError(f"bit_index must be in [0, {config.nbits}), got {bit_index}")
    return _fields_by_length(config, bit_index)[run_bit_length(bits, config)]


def lean_decode(bits, config: PositConfig) -> np.ndarray:
    """Decode posit patterns of at most 32 bits to float64, bit-exactly."""
    if config.nbits > LEAN_MAX_BITS:
        raise ValueError(
            f"lean codec serves posits up to {LEAN_MAX_BITS} bits, got {config.nbits}"
        )
    width = config.nbits - 1
    es = config.es
    work = np.asarray(bits).astype(np.int64)
    sign = (work >> width) & 1
    body = work & (config.mask >> 1)
    top = body >> (width - 1)
    length = _bit_length(body, width)
    below = np.maximum(length - 1, 0)
    # -k for a run of k zeros, k - 1 for a run of ones (~(-k) == k - 1).
    regime = (length - width) ^ -top
    tail = body & ((1 << below) - 1)
    # float64 bits less the bias: useed**regime on the exponent field, the
    # exponent bits just above the mantissa (so they add to it), then the
    # fraction.  A negative pattern's direct form is the same sum negated.
    magnitude = (regime << (es + _MANTISSA_BITS)) + (tail << (_MANTISSA_BITS + es - below))
    negate = -sign
    pattern = ((magnitude ^ negate) - negate + _BIAS_BITS) | (sign << 63)
    pattern = np.where(body == 0, sign * _NAN_BITS, pattern)
    return pattern.view(np.float64)
