"""Composed-LUT codec backend: wide patterns decoded as two table gathers.

The exhaustive :class:`~repro.formats.backends.LUTBackend` stops at 16
bits (2**16 table entries); a 32-bit format would need a 32 GiB table.
This backend extends table-driven decoding to widths up to 32 bits by
*composing* two 16-bit lookups: a pattern ``p`` splits into a high half
``hi`` and a low half ``lo``, and within one ``hi`` row the decoded
value is an affine function of ``lo`` wherever the format's field
boundaries do not move across the row::

    decode(hi:lo) == A1[hi] + B[hi] * (lo - 1)      for lo >= 1

For IEEE layouts the row exponent is fixed by ``hi`` (the exponent
field lives entirely in the high half), so ``B[hi]`` is the row ulp —
an exact power of two — and the sum carries at most
``fraction_bits + 1`` significant bits: float64 evaluation is *exact*,
not approximate.  For posits the same holds on every row whose regime
run terminates inside the high half (fraction width >= 16); rows where
the run spills into ``lo`` are not affine, and negative posits make
``lo == 0`` belong to the neighbouring row of the two's-complement
lattice, which is why the anchor sits at ``lo == 1`` and ``lo == 0``
has its own exact table ``A0``.

Affineness is *proved per row at build time*, not assumed: every row is
probed at all power-of-two boundaries of ``lo`` (plus neighbours and
the row ends) and the prediction compared bit-for-bit against the
direct codec; rows with a non-finite anchor/slope or any probe mismatch
are flagged and served by the direct codec element-wise.  The
conformance oracle additionally gates the backend exhaustively at <= 16
bits and with sampled + special-pattern corners at 32 bits.

``classify_bits`` / ``regime_sizes`` use the same row structure: a
row's field layout is fixed by ``hi`` unless the regime run reaches the
low half, so one ``(2**hi_bits, nbits)`` field table plus a stability
flag per row answers classification with one fancy gather.

``to_bits`` is the one encoder every backend shares
(:meth:`repro.formats.backends.CodecBackend.to_bits`).
"""

from __future__ import annotations

import numpy as np

from repro.formats.backends import CodecBackend
from repro.telemetry import get_telemetry

#: Widest format the composed backend serves (two 16-bit halves).
COMPOSED_MAX_BITS = 32


def _float_bits(values: np.ndarray) -> np.ndarray:
    """Bit view of float64 values, for NaN-safe exact comparison."""
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64)).view(np.int64)


class ComposedLUTBackend(CodecBackend):
    """Two-gather decode backend for formats up to 32 bits wide."""

    backend_name = "composed"

    def __init__(self, fmt) -> None:
        if fmt.nbits > COMPOSED_MAX_BITS:
            raise ValueError(
                f"composed backend supports formats up to {COMPOSED_MAX_BITS} bits, "
                f"but {fmt.name} has {fmt.nbits}"
            )
        if fmt.nbits < 2:
            raise ValueError(f"composed backend needs at least 2 bits, got {fmt.nbits}")
        self._fmt = fmt
        # 16/16 split for wide formats; narrow formats split down the
        # middle so the backend stays exhaustively testable at 16 bits.
        self._lo_bits = 16 if fmt.nbits > 16 else fmt.nbits // 2
        self._hi_bits = fmt.nbits - self._lo_bits
        self._lo_mask = np.int64((1 << self._lo_bits) - 1)
        self._mask = np.int64((1 << fmt.nbits) - 1)
        # Value tables (lazy): exact lo==0 column, lo==1 anchor, slope,
        # and the per-row proof that the affine prediction is bit-exact.
        self._a0: np.ndarray | None = None
        self._a1: np.ndarray | None = None
        self._b: np.ndarray | None = None
        self._affine: np.ndarray | None = None
        # Layout tables (lazy): per-row field of every bit, per-row
        # regime size, and the per-row layout-stability flag.
        self._classify_table: np.ndarray | None = None
        self._regime_table: np.ndarray | None = None
        self._layout_stable: np.ndarray | None = None

    # -- table construction (lazy) ---------------------------------------

    def _build(self, kind: str, builder):
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return builder()
        with telemetry.span("formats.composed.build"):
            result = builder()
        telemetry.count("formats.composed.tables_built")
        telemetry.count(f"formats.composed.tables_built.{kind}")
        return result

    def _hi_patterns(self) -> np.ndarray:
        """Every row's base pattern ``hi << lo_bits`` as int64."""
        return np.arange(1 << self._hi_bits, dtype=np.int64) << self._lo_bits

    def _decode(self, patterns: np.ndarray) -> np.ndarray:
        return np.asarray(
            self._fmt.decode_raw(patterns.astype(self._fmt.dtype)), dtype=np.float64
        )

    def _probe_los(self) -> list[int]:
        """Low-half probe offsets: all power-of-two boundaries +- 1.

        Field boundaries inside a row can only move at power-of-two
        positions of ``lo`` (a regime run or carry crossing a bit
        boundary), so probing every ``2**k - 1 / 2**k / 2**k + 1``
        triple plus the row ends witnesses every possible break.
        """
        los = {1, 2, 3, int(self._lo_mask), int(self._lo_mask) - 1}
        for k in range(2, self._lo_bits):
            los.update((2**k - 1, 2**k, 2**k + 1))
        return sorted(lo for lo in los if 1 <= lo <= int(self._lo_mask))

    def _ensure_values(self) -> None:
        if self._a1 is not None:
            return

        def build():
            base = self._hi_patterns()
            a0 = self._decode(base)
            a1 = self._decode(base | 1)
            with np.errstate(invalid="ignore"):
                b = self._decode(base | 2) - a1
                affine = np.isfinite(a1) & np.isfinite(b)
            for lo in self._probe_los():
                with np.errstate(over="ignore", invalid="ignore"):
                    predicted = a1 + b * float(lo - 1)
                actual = self._decode(base | lo)
                affine &= _float_bits(predicted) == _float_bits(actual)
            return a0, a1, b, affine

        self._a0, self._a1, self._b, self._affine = self._build("values", build)

    def _ensure_layout(self) -> None:
        if self._classify_table is not None:
            return

        def build():
            base = self._hi_patterns()
            nbits = self._fmt.nbits
            all_bits = list(range(nbits))
            # A row's layout is stable iff classification and regime
            # agree across low halves that maximally extend a zero run,
            # a one run, or neither.
            probes = [0, int(self._lo_mask)]
            alternating = 0x5555555555555555 & int(self._lo_mask)
            probes.extend({alternating, alternating << 1 & int(self._lo_mask)})
            tables = []
            regimes = []
            for lo in probes:
                patterns = (base | lo).astype(self._fmt.dtype)
                fields = np.asarray(self._fmt.classify_many_raw(patterns, all_bits))
                tables.append(fields.T.astype(np.int64, copy=False))
                regimes.append(np.asarray(self._fmt.regime_raw(patterns), dtype=np.int64))
            stable = np.ones(base.size, dtype=bool)
            for other in tables[1:]:
                stable &= np.all(tables[0] == other, axis=1)
            for other in regimes[1:]:
                stable &= regimes[0] == other
            return np.ascontiguousarray(tables[0]), regimes[0], stable

        self._classify_table, self._regime_table, self._layout_stable = self._build(
            "layout", build
        )

    # -- helpers ----------------------------------------------------------

    def _split(self, bits) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(bits).astype(np.int64) & self._mask
        return idx >> self._lo_bits, idx & self._lo_mask

    # -- backend protocol -------------------------------------------------

    def from_bits(self, bits) -> np.ndarray:
        self._ensure_values()
        shape = np.shape(np.asarray(bits))
        hi, lo = self._split(np.reshape(np.asarray(bits), -1))
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._a1[hi] + self._b[hi] * (lo - 1).astype(np.float64)
        lo0 = lo == 0
        out = np.where(lo0, self._a0[hi], out)
        fallback = ~self._affine[hi] & ~lo0
        if np.any(fallback):
            patterns = ((hi << self._lo_bits) | lo)[fallback]
            out[fallback] = self._decode(patterns)
        return out.reshape(shape)

    def classify_bits(self, bits, bit_index: int) -> np.ndarray:
        self._ensure_layout()
        shape = np.shape(np.asarray(bits))
        hi, lo = self._split(np.reshape(np.asarray(bits), -1))
        out = self._classify_table[hi, bit_index]
        fallback = ~self._layout_stable[hi]
        if np.any(fallback):
            patterns = ((hi << self._lo_bits) | lo)[fallback].astype(self._fmt.dtype)
            out = np.asarray(out).copy()
            out[fallback] = np.asarray(
                self._fmt.classify_raw(patterns, bit_index), dtype=np.int64
            )
        return out.reshape(shape)

    def regime_sizes(self, bits) -> np.ndarray:
        self._ensure_layout()
        shape = np.shape(np.asarray(bits))
        hi, lo = self._split(np.reshape(np.asarray(bits), -1))
        out = self._regime_table[hi].copy()
        fallback = ~self._layout_stable[hi]
        if np.any(fallback):
            patterns = ((hi << self._lo_bits) | lo)[fallback].astype(self._fmt.dtype)
            out[fallback] = np.asarray(self._fmt.regime_raw(patterns), dtype=np.int64)
        return out.reshape(shape)
