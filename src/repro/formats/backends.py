"""Pluggable codec backends for :class:`~repro.formats.base.NumberFormat`.

Two backends serve the protocol's hot operations:

``direct``
    Calls the format's raw vectorized encode/decode/classify on every
    request.  Always available, any width.  Posits of up to 32 bits
    decode without tables here (:mod:`repro.posit.lean`).

``lut``
    For formats of at most 16 bits, every operation that maps *patterns*
    to answers is a table gather: ``from_bits`` indexes a precomputed
    float64 value table (the dominant cost of a campaign — every trial
    decodes a faulty pattern), ``classify_bits`` and ``regime_sizes``
    index per-bit field tables.  The exhaustive equivalence tests assert
    bit-identity with ``direct`` over every pattern, not approximate
    agreement.

Every backend encodes with the format's own ``encode_raw``
(:meth:`CodecBackend.to_bits`): a campaign encodes its field once, so
decode is the only hot direction, and one encoder cannot drift between
backends.

Tables are built lazily on first use (a 16-bit format costs one
exhaustive decode plus ~nbits classify sweeps, ~1 MiB resident), so
importing the registry stays cheap.

Selection is automatic — ``lut`` whenever the width permits, ``direct``
beyond — or explicit per instance via
``repro.formats.resolve(spec, backend=...)``.  The campaign pipeline
(:class:`repro.inject.trial.FieldPipeline`) picks its own backend per
field, and the conformance ``backend-agreement`` check compares ``lut``
against ``direct``.

Every backend also derives the fault decodes the campaign pipeline
(:class:`repro.inject.trial.FieldPipeline`) calls on its stored patterns:

``decode_flips(bits, bit_indices)``
    Decode ``bits`` with bit ``bit_indices[i]`` flipped.  A 1-D ``bits``
    array broadcasts against the bit axis (result ``(B, N)``); a 2-D
    ``(B, T)`` array is flipped row-wise (row ``i`` at bit
    ``bit_indices[i]``).

``decode_masked(bits, masks)``
    Decode ``bits`` under arbitrary XOR / set / clear fault masks.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import get_telemetry

#: Widest format the LUT backend will tabulate (2**16 entries).
LUT_MAX_BITS = 16

_BACKEND_CHOICES = ("auto", "direct", "lut")


def flip_patterns(bits, bit_indices, dtype) -> np.ndarray:
    """XOR one single-bit mask per row into ``bits``.

    1-D ``bits`` broadcasts to ``(len(bit_indices), bits.size)``; an
    array with a leading row axis is flipped row-wise.
    """
    arr = np.asarray(bits)
    idx = np.asarray(bit_indices, dtype=np.int64)
    one = np.ones((), dtype=dtype)
    masks = np.left_shift(one, idx.astype(dtype))
    if arr.ndim <= 1:
        return arr ^ masks[:, None]
    return arr ^ masks.reshape((idx.size,) + (1,) * (arr.ndim - 1))


def resolve_backend_name(fmt, requested: str | None) -> str:
    """Decide which backend a format instance should use.

    An explicit ``requested`` name wins; ``None`` or ``auto`` picks
    ``lut`` for every format narrow enough to tabulate and ``direct``
    beyond.  A table backend rejects a format too wide for it when
    :func:`make_backend` builds it.
    """
    choice = "auto" if requested is None else requested.strip().lower()
    if choice == "composed":
        raise ValueError(
            "format backend 'composed' was removed: posits up to 32 bits decode "
            "without tables, so request backend='direct'"
        )
    if choice not in _BACKEND_CHOICES:
        raise ValueError(
            f"unknown format backend {choice!r}; choose from {', '.join(_BACKEND_CHOICES)}"
        )
    if choice == "auto":
        return "lut" if fmt.nbits <= LUT_MAX_BITS else "direct"
    return choice


def make_backend(fmt, requested: str | None = None):
    """Build the backend instance serving ``fmt``."""
    name = resolve_backend_name(fmt, requested)
    if name == "lut":
        return LUTBackend(fmt)
    return DirectBackend(fmt)


class CodecBackend:
    """The encoder and fault decodes every codec backend inherits.

    Concrete backends implement the decode side of the protocol
    (``from_bits``/``classify_bits``/``regime_sizes``); the one encoder
    and the fault decodes below are shared.
    """

    backend_name = "abstract"
    _fmt: object

    def to_bits(self, values) -> np.ndarray:
        return self._fmt.encode_raw(values)

    def decode_flips(self, bits, bit_indices) -> np.ndarray:
        """Decode ``bits`` with each row's listed bit flipped."""
        return self.from_bits(flip_patterns(bits, bit_indices, self._fmt.dtype))

    def decode_masked(self, bits, masks) -> np.ndarray:
        """Decode ``bits`` under arbitrary XOR / set / clear fault masks.

        ``masks`` is a :class:`repro.inject.faults.FaultMasks`; each mask
        may be a scalar or broadcastable per-trial array, so one call
        serves every registered fault model.  Pure pattern arithmetic
        feeding ``from_bits`` — table backends decode the corrupted
        patterns through the same value gather as ``decode_flips``.
        """
        from repro.inject.faults import apply_masks

        return self.from_bits(apply_masks(np.asarray(bits), masks, self._fmt.nbits))


class DirectBackend(CodecBackend):
    """Pass-through backend: every call runs the raw vectorized codec."""

    backend_name = "direct"

    def __init__(self, fmt) -> None:
        self._fmt = fmt

    def from_bits(self, bits) -> np.ndarray:
        return self._fmt.decode_raw(bits)

    def classify_bits(self, bits, bit_index: int) -> np.ndarray:
        return self._fmt.classify_raw(bits, bit_index)

    def regime_sizes(self, bits) -> np.ndarray:
        return self._fmt.regime_raw(bits)


class LUTBackend(CodecBackend):
    """Exhaustive-table backend for formats of at most 16 bits."""

    backend_name = "lut"

    def __init__(self, fmt) -> None:
        if fmt.nbits > LUT_MAX_BITS:
            raise ValueError(
                f"lut backend supports formats up to {LUT_MAX_BITS} bits, "
                f"but {fmt.name} has {fmt.nbits}"
            )
        self._fmt = fmt
        self._mask = (1 << fmt.nbits) - 1
        self._values: np.ndarray | None = None
        self._classify_tables: list[np.ndarray | None] = [None] * fmt.nbits
        self._regime_table: np.ndarray | None = None

    # -- table construction (lazy) ---------------------------------------

    def _all_patterns(self) -> np.ndarray:
        return np.arange(1 << self._fmt.nbits, dtype=np.uint64)

    def _build(self, kind: str, builder):
        """Run one lazy table build under the LUT-build telemetry span."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return builder()
        with telemetry.span("formats.lut.build"):
            table = builder()
        telemetry.count("formats.lut.tables_built")
        telemetry.count(f"formats.lut.tables_built.{kind}")
        return table

    def _ensure_values(self) -> np.ndarray:
        if self._values is None:
            self._values = self._build(
                "values",
                lambda: np.asarray(
                    self._fmt.decode_raw(self._all_patterns()), dtype=np.float64
                ),
            )
        return self._values

    def _ensure_classify(self, bit_index: int) -> np.ndarray:
        table = self._classify_tables[bit_index]
        if table is None:
            table = self._build(
                "classify",
                lambda: np.asarray(
                    self._fmt.classify_raw(self._all_patterns(), bit_index),
                    dtype=np.int64,
                ),
            )
            self._classify_tables[bit_index] = table
        return table

    def _ensure_regime(self) -> np.ndarray:
        if self._regime_table is None:
            self._regime_table = self._build(
                "regime",
                lambda: np.asarray(
                    self._fmt.regime_raw(self._all_patterns()), dtype=np.int64
                ),
            )
        return self._regime_table

    def _indices(self, bits) -> np.ndarray:
        return np.asarray(bits).astype(np.int64) & np.int64(self._mask)

    # -- backend protocol ------------------------------------------------

    def from_bits(self, bits) -> np.ndarray:
        return self._ensure_values()[self._indices(bits)]

    def classify_bits(self, bits, bit_index: int) -> np.ndarray:
        return self._ensure_classify(bit_index)[self._indices(bits)]

    def regime_sizes(self, bits) -> np.ndarray:
        return self._ensure_regime()[self._indices(bits)]
