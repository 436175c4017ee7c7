"""The ``NumberFormat`` protocol: one interface over every number system.

A ``NumberFormat`` abstracts "how a float64 datum is stored in this
number system": conversion to a bit pattern, conversion of a (possibly
corrupted) pattern back to a float for metric evaluation, and per-bit
field classification.  The fault-injection engine, the CLI, the
application kernels and the detection machinery all speak this protocol
and nothing else, so a new number system plugs into every campaign by
implementing the five raw operations below and registering a spec.

Conversion semantics mirror the paper's Section 4.1.2: the datum is
first converted float -> format (rounding once), the flip happens on the
stored pattern, and the faulty pattern is converted back to float.  The
*original* value used for error metrics is the round-tripped value, not
the raw float — otherwise the conversion error would contaminate every
trial.

Concrete classes implement the ``*_raw`` methods; the public
``to_bits``/``from_bits``/``classify_bits``/``regime_sizes`` entry
points wrap them.  Every format encodes with its own ``encode_raw``.
Decoding follows one rule, fixed by the layout: a format of at most
:data:`LUT_MAX_BITS` bits that hardware does not convert (posits,
fixed-posits, software ``binary(e,f)`` layouts) answers every decode
from exhaustive tables built on first use (``backend_name == "lut"``);
every other format calls its raw codec (``direct``).  A table gather
equals the raw codec bit for bit (the conformance ``backend-agreement``
check).  Nothing else is memoized here: a campaign stores its field
once, in its :class:`repro.inject.trial.FieldPipeline`, and every
consumer reads that one store.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.telemetry import get_telemetry

#: Widest format whose decodes are table gathers (2**16 entries a table).
LUT_MAX_BITS = 16

#: Values per elementwise codec pass over a long 1-D array (a sweep of
#: 2^14..2^18 on a 2^20 posit32 field put the fastest at 2^15).
CHUNK = 1 << 15


def _chunked(codec, values) -> np.ndarray:
    """``codec(values)`` run over ``CHUNK``-value slices of a long 1-D array.

    Each output element depends only on its own input element, so the
    result is bit-identical to one whole-array call, while the codec's
    temporaries stay cache-sized.  Scalars, N-D arrays and arrays of at
    most ``CHUNK`` values go straight through.
    """
    if np.ndim(values) != 1 or len(values) <= CHUNK:
        return codec(values)
    values = np.asarray(values)
    first = codec(values[:CHUNK])
    out = np.empty(values.shape, dtype=first.dtype)
    out[:CHUNK] = first
    for start in range(CHUNK, values.size, CHUNK):
        out[start:start + CHUNK] = codec(values[start:start + CHUNK])
    return out


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


class NumberFormat(abc.ABC):
    """A number system that stores float data and can suffer bit flips.

    Attributes
    ----------
    name:
        Canonical registry name; always a valid spec string, so any
        format — however parameterized — rehydrates across process
        boundaries via ``resolve(self.name)``.
    nbits:
        Width of one stored value in bits.
    """

    #: Canonical spec string, e.g. ``posit32`` or ``fixedposit(16,es=2,r=3)``.
    name: str
    #: Width of one stored value in bits.
    nbits: int

    #: Whether hardware converts this layout by a cast or a shift, so a
    #: table cannot beat its raw codec.
    _hardware_layout = False

    def __init__(self) -> None:
        # Exhaustive decode tables, built on first use and keyed by what
        # they answer; ``None`` for a format that decodes raw.
        tabulated = self.nbits <= LUT_MAX_BITS and not self._hardware_layout
        self._tables: dict | None = {} if tabulated else None

    # -- raw codec operations (implemented by concrete formats) ----------

    @abc.abstractmethod
    def encode_raw(self, values) -> np.ndarray:
        """Store float values: the bit patterns, as unsigned ints."""

    @abc.abstractmethod
    def decode_raw(self, bits) -> np.ndarray:
        """Load bit patterns back into float64 values."""

    @abc.abstractmethod
    def classify_raw(self, bits, bit_index: int) -> np.ndarray:
        """Per-element field id of ``bit_index`` (format-specific enum)."""

    def regime_raw(self, bits) -> np.ndarray:
        """Regime size k per element; zeros for systems without a regime."""
        return np.zeros(np.shape(np.asarray(bits)), dtype=np.int64)

    @abc.abstractmethod
    def field_label(self, field_id: int) -> str:
        """Human-readable name of a field id."""

    # -- public protocol ------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """NumPy unsigned dtype wide enough to store a bit pattern."""
        from repro.bitops import uint_dtype_for

        return uint_dtype_for(self.nbits)

    @property
    def spec(self) -> str:
        """The spec string this format rehydrates from (== ``name``)."""
        return self.name

    @property
    def backend_name(self) -> str:
        """``lut`` when this format decodes by table gathers, else ``direct``."""
        return "direct" if self._tables is None else "lut"

    def to_bits(self, values) -> np.ndarray:
        """Store float values: returns the bit patterns (unsigned ints)."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return _chunked(self.encode_raw, values)
        with telemetry.span("formats.encode"):
            bits = _chunked(self.encode_raw, values)
        telemetry.count("formats.encode.values", np.size(bits))
        return bits

    def from_bits(self, bits) -> np.ndarray:
        """Load bit patterns back into float64 values."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return _chunked(self._decode, bits)
        with telemetry.span("formats.decode"):
            values = _chunked(self._decode, bits)
        telemetry.count("formats.decode.values", np.size(values))
        return values

    def classify_bits(self, bits, bit_index: int) -> np.ndarray:
        """Per-element field id of ``bit_index`` (format-specific enum)."""
        self._check_bit(bit_index)
        if self._tables is None:
            return self.classify_raw(bits, bit_index)
        return self._gather(
            ("classify", bit_index), lambda patterns: self.classify_raw(patterns, bit_index), bits
        )

    def regime_sizes(self, bits) -> np.ndarray:
        """Regime size k per element; zeros for systems without a regime."""
        if self._tables is None:
            return self.regime_raw(bits)
        return self._gather(("regime",), self.regime_raw, bits)

    # -- exhaustive tables ------------------------------------------------

    def _decode(self, bits) -> np.ndarray:
        if self._tables is None:
            return self.decode_raw(bits)
        return self._gather(("values",), self.decode_raw, bits)

    def _gather(self, key: tuple, raw, bits) -> np.ndarray:
        """``raw``'s answer for each pattern, from the table ``key`` names.

        The table runs ``raw`` once over every pattern, on first use.
        """
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._build_table(key[0], raw)
        return table[np.asarray(bits).astype(np.int64) & np.int64((1 << self.nbits) - 1)]

    def _build_table(self, kind: str, raw) -> np.ndarray:
        patterns = np.arange(1 << self.nbits, dtype=np.uint64)
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return np.asarray(raw(patterns))
        with telemetry.span("formats.lut.build"):
            table = np.asarray(raw(patterns))
        telemetry.count("formats.lut.tables_built")
        telemetry.count(f"formats.lut.tables_built.{kind}")
        return table

    def _check_bit(self, bit_index: int) -> None:
        if not 0 <= bit_index < self.nbits:
            raise ValueError(f"bit_index must be in [0, {self.nbits}), got {bit_index}")

    # -- fault decodes ----------------------------------------------------

    def decode_flips(self, bits, bit_indices) -> np.ndarray:
        """Decode ``bits`` with bit ``bit_indices[i]`` flipped in row i.

        A 1-D ``bits`` array broadcasts against the bit axis (result
        shape ``(len(bit_indices), bits.size)``); an array with a
        leading row axis is flipped row-wise.
        """
        for bit_index in np.asarray(bit_indices).reshape(-1).tolist():
            self._check_bit(bit_index)
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._decode(flip_patterns(bits, bit_indices, self.dtype))
        with telemetry.span("formats.decode"):
            values = self._decode(flip_patterns(bits, bit_indices, self.dtype))
        telemetry.count("formats.decode.values", np.size(values))
        return values

    def decode_masked(self, bits, masks) -> np.ndarray:
        """Decode ``bits`` under arbitrary XOR / set / clear fault masks.

        The multi-bit generalization of :meth:`decode_flips`: ``masks``
        is a :class:`repro.inject.faults.FaultMasks` whose members are
        scalars or per-trial arrays broadcastable to ``bits``; the
        corrupted patterns decode like :meth:`from_bits`.
        """
        from repro.inject.faults import apply_masks

        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._decode(apply_masks(np.asarray(bits), masks, self.nbits))
        with telemetry.span("formats.decode"):
            values = self._decode(apply_masks(np.asarray(bits), masks, self.nbits))
        telemetry.count("formats.decode.values", np.size(values))
        return values

    def round_trip(self, values) -> np.ndarray:
        """Store-then-load: the representable value of each input.

        The one public entry point (and telemetry span) for every
        format; a format with a faster exact rounding overrides
        :meth:`round_trip_raw`, never this method.
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self.round_trip_raw(values)
        with telemetry.span("formats.round_trip"):
            return self.round_trip_raw(values)

    def round_trip_raw(self, values) -> np.ndarray:
        """Store-then-load through the bit patterns."""
        return self.from_bits(self.to_bits(values))

    def layout_string(self, pattern: int) -> str:
        """Render a pattern with field separators (``0|10|01|...``)."""
        return format(int(pattern) & ((1 << self.nbits) - 1), f"0{self.nbits}b")

    def describe(self) -> str:
        """Single-line human-readable summary of the format."""
        return f"{self.name} ({self.nbits} bits)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NumberFormat {self.name} ({self.backend_name})>"
