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
points delegate to a pluggable codec backend (``direct`` or ``lut``,
see :mod:`repro.formats.backends`) chosen per format at construction.
Nothing is memoized here: a campaign stores its field once, in its
:class:`repro.inject.trial.FieldPipeline`, and every consumer reads
that one store.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.telemetry import get_telemetry

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

    def __init__(self, backend: str | None = None) -> None:
        from repro.formats.backends import make_backend

        self._backend = make_backend(self, backend)

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

    # -- public protocol (backend-dispatched) ----------------------------

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
        """Which codec backend serves this instance (``direct``/``lut``)."""
        return self._backend.backend_name

    def to_bits(self, values) -> np.ndarray:
        """Store float values: returns the bit patterns (unsigned ints)."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return _chunked(self._backend.to_bits, values)
        with telemetry.span("formats.encode"):
            bits = _chunked(self._backend.to_bits, values)
        telemetry.count("formats.encode.values", np.size(bits))
        return bits

    def from_bits(self, bits) -> np.ndarray:
        """Load bit patterns back into float64 values."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return _chunked(self._backend.from_bits, bits)
        with telemetry.span("formats.decode"):
            values = _chunked(self._backend.from_bits, bits)
        telemetry.count("formats.decode.values", np.size(values))
        return values

    def classify_bits(self, bits, bit_index: int) -> np.ndarray:
        """Per-element field id of ``bit_index`` (format-specific enum)."""
        self._check_bit(bit_index)
        return self._backend.classify_bits(bits, bit_index)

    def regime_sizes(self, bits) -> np.ndarray:
        """Regime size k per element; zeros for systems without a regime."""
        return self._backend.regime_sizes(bits)

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
            return self._backend.decode_flips(bits, bit_indices)
        with telemetry.span("formats.decode"):
            values = self._backend.decode_flips(bits, bit_indices)
        telemetry.count("formats.decode.values", np.size(values))
        return values

    def decode_masked(self, bits, masks) -> np.ndarray:
        """Decode ``bits`` under arbitrary XOR / set / clear fault masks.

        The multi-bit generalization of :meth:`decode_flips`: ``masks``
        is a :class:`repro.inject.faults.FaultMasks` whose members are
        scalars or per-trial arrays broadcastable to ``bits``.
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._backend.decode_masked(bits, masks)
        with telemetry.span("formats.decode"):
            values = self._backend.decode_masked(bits, masks)
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
        return f"<NumberFormat {self.name} backend={self.backend_name}>"
