"""Pluggable codec backends for :class:`~repro.formats.base.NumberFormat`.

Three backends serve the protocol's hot operations:

``direct``
    Calls the format's raw vectorized encode/decode/classify on every
    request.  Always available, any width.

``lut``
    For formats of at most 16 bits, every operation that maps *patterns*
    to answers is a table gather: ``from_bits`` indexes a precomputed
    float64 value table (the dominant cost of a campaign — every trial
    decodes a faulty pattern), ``classify_bits`` and ``regime_sizes``
    index per-bit field tables.  ``to_bits`` resolves representable
    inputs by binary search over the sorted value lattice and delegates
    the residual elements (inexact values, zeros, non-finite) to the
    direct codec, so its rounding semantics are *identical* to
    ``direct`` by construction — the exhaustive equivalence tests assert
    bit-identity over every pattern, not approximate agreement.

``composed``
    Table decoding for widths up to 32 bits by composing two 16-bit
    gathers, with per-row bit-exactness proved at build time (see
    :mod:`repro.formats.composed`).

Tables are built lazily on first use (a 16-bit format costs one
exhaustive decode plus ~nbits classify sweeps, ~1 MiB resident), so
importing the registry stays cheap.

Selection is automatic — ``lut`` whenever the width permits — and can
be forced per process with ``REPRO_FORMAT_BACKEND`` or per instance via
``repro.formats.resolve(spec, backend=...)``.  The batched campaign
pipeline uses its own default policy (:func:`batch_backend_name`) which
additionally picks ``composed`` for 17–32-bit formats.

Every backend also implements the *batch* half of the codec surface
consumed by the encode-once campaign pipeline
(:class:`repro.inject.trial.FieldPipeline`):

``decode_flips(bits, bit_indices)``
    Decode ``bits`` with bit ``bit_indices[i]`` flipped.  A 1-D ``bits``
    array broadcasts against the bit axis (result ``(B, N)``); a 2-D
    ``(B, T)`` array is flipped row-wise (row ``i`` at bit
    ``bit_indices[i]``).

``classify_rows(bits_rows, bit_indices)``
    Field id of bit ``bit_indices[i]`` for every pattern in row ``i``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.telemetry import get_telemetry

#: Widest format the LUT backend will tabulate (2**16 entries).
LUT_MAX_BITS = 16

#: Environment variable overriding automatic backend selection.
BACKEND_ENV_VAR = "REPRO_FORMAT_BACKEND"

_BACKEND_CHOICES = ("auto", "direct", "lut", "composed")


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

    Explicit ``requested`` wins, then the ``REPRO_FORMAT_BACKEND``
    environment variable, then ``auto`` (LUT for every format narrow
    enough to tabulate).  An explicit ``lut``/``composed`` request for a
    too-wide format is an error; the same choice at environment level
    quietly falls back to ``direct`` so one process-wide setting never
    breaks wider campaigns.
    """
    from repro.formats.composed import COMPOSED_MAX_BITS

    choice = requested if requested is not None else os.environ.get(BACKEND_ENV_VAR, "auto")
    choice = choice.strip().lower()
    if choice not in _BACKEND_CHOICES:
        raise ValueError(
            f"unknown format backend {choice!r}; choose from {', '.join(_BACKEND_CHOICES)}"
        )
    if choice == "lut" and fmt.nbits > LUT_MAX_BITS:
        if requested is None:
            return "direct"
        raise ValueError(
            f"lut backend supports formats up to {LUT_MAX_BITS} bits, "
            f"but {fmt.name} has {fmt.nbits}"
        )
    if choice == "composed" and fmt.nbits > COMPOSED_MAX_BITS:
        if requested is None:
            return "direct"
        raise ValueError(
            f"composed backend supports formats up to {COMPOSED_MAX_BITS} bits, "
            f"but {fmt.name} has {fmt.nbits}"
        )
    if choice == "auto":
        return "lut" if fmt.nbits <= LUT_MAX_BITS else "direct"
    return choice


def batch_backend_name(fmt) -> str:
    """Default backend for the batched campaign pipeline.

    Unlike the scalar ``auto`` policy (which never changes an existing
    format instance's behavior), the pipeline constructs its own codec
    per field and can afford the composed backend's one-time table
    build, so 17–32-bit formats get ``composed`` by default.  A
    non-``auto`` ``REPRO_FORMAT_BACKEND`` still wins, with the same
    width fallbacks as :func:`resolve_backend_name`.
    """
    env = os.environ.get(BACKEND_ENV_VAR)
    if env is not None and env.strip().lower() != "auto":
        return resolve_backend_name(fmt, None)
    from repro.formats.composed import COMPOSED_MAX_BITS

    if fmt.nbits <= LUT_MAX_BITS:
        return "lut"
    if fmt.nbits <= COMPOSED_MAX_BITS:
        return "composed"
    return "direct"


def make_backend(fmt, requested: str | None = None):
    """Build the backend instance serving ``fmt``."""
    name = resolve_backend_name(fmt, requested)
    if name == "lut":
        return LUTBackend(fmt)
    if name == "composed":
        from repro.formats.composed import ComposedLUTBackend

        return ComposedLUTBackend(fmt)
    return DirectBackend(fmt)


class CodecBackend:
    """Shared batch operations every codec backend inherits.

    Concrete backends implement the scalar protocol
    (``to_bits``/``from_bits``/``classify_bits``/``regime_sizes``); the
    batch surface below is derived from it and overridden where a
    backend has a faster whole-block form.
    """

    backend_name = "abstract"
    _fmt: object

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

    def classify_rows(self, bits_rows, bit_indices) -> np.ndarray:
        """Field id of bit ``bit_indices[i]`` for every pattern in row i."""
        rows = np.asarray(bits_rows)
        out = np.empty(rows.shape, dtype=np.int64)
        for i, bit in enumerate(np.asarray(bit_indices).tolist()):
            out[i] = self.classify_bits(rows[i], int(bit))
        return out


class DirectBackend(CodecBackend):
    """Pass-through backend: every call runs the raw vectorized codec."""

    backend_name = "direct"

    def __init__(self, fmt) -> None:
        self._fmt = fmt

    def to_bits(self, values) -> np.ndarray:
        return self._fmt.encode_raw(values)

    def from_bits(self, bits) -> np.ndarray:
        return self._fmt.decode_raw(bits)

    def classify_bits(self, bits, bit_index: int) -> np.ndarray:
        return self._fmt.classify_raw(bits, bit_index)

    def classify_rows(self, bits_rows, bit_indices) -> np.ndarray:
        # Formats with a whole-block classifier (posit: one decompose
        # for the full row block) answer in a single vectorized pass.
        return self._fmt.classify_rows_raw(bits_rows, bit_indices)

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
        self._sorted_values: np.ndarray | None = None
        self._sorted_patterns: np.ndarray | None = None
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

    def _ensure_sorted(self) -> None:
        if self._sorted_values is not None:
            return
        values = self._ensure_values()

        def build():
            finite = np.nonzero(np.isfinite(values) & (values != 0))[0]
            order = np.argsort(values[finite], kind="stable")
            return values[finite][order], finite[order].astype(self._fmt.dtype)

        self._sorted_values, self._sorted_patterns = self._build("sorted", build)

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

    def to_bits(self, values) -> np.ndarray:
        self._ensure_sorted()
        array = np.asarray(values, dtype=np.float64)
        flat = array.reshape(-1)
        idx = np.searchsorted(self._sorted_values, flat)
        idx = np.minimum(idx, self._sorted_values.size - 1)
        # Exactly representable, finite, nonzero values resolve by table;
        # everything else (values needing rounding, zeros with a sign,
        # NaN/inf saturation) delegates to the direct codec so rounding
        # semantics cannot drift between backends.
        exact = (self._sorted_values[idx] == flat) & np.isfinite(flat) & (flat != 0)
        out = np.empty(flat.shape, dtype=self._fmt.dtype)
        out[exact] = self._sorted_patterns[idx[exact]]
        if not np.all(exact):
            rest = ~exact
            out[rest] = np.asarray(
                self._fmt.encode_raw(flat[rest]), dtype=self._fmt.dtype
            )
        return out.reshape(array.shape)

    def classify_bits(self, bits, bit_index: int) -> np.ndarray:
        return self._ensure_classify(bit_index)[self._indices(bits)]

    def classify_rows(self, bits_rows, bit_indices) -> np.ndarray:
        rows = np.asarray(bits_rows)
        indices = self._indices(rows)
        out = np.empty(rows.shape, dtype=np.int64)
        for i, bit in enumerate(np.asarray(bit_indices).tolist()):
            out[i] = self._ensure_classify(int(bit))[indices[i]]
        return out

    def regime_sizes(self, bits) -> np.ndarray:
        return self._ensure_regime()[self._indices(bits)]
