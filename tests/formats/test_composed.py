"""The composed-table backend must be bit-identical to direct.

The composed backend decodes a wide pattern as two table gathers (high
half selects an affine row, low half indexes into it), so every test
here is an exact-equality test: exhaustive over the whole pattern space
for 16-bit formats, stratified samples plus special-value corners at
32 bits.
"""

import numpy as np
import pytest

from repro.formats import (
    COMPOSED_MAX_BITS,
    ComposedLUTBackend,
    parse_spec,
    resolve,
)

EXHAUSTIVE_FORMATS = ["posit16", "posit16es1", "bfloat16", "ieee16", "posit8"]
SAMPLED_FORMATS = ["posit32", "ieee32"]


def _bits_view(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _sample_patterns(fmt, rng, count=60000):
    patterns = rng.integers(0, 1 << fmt.nbits, size=count, dtype=np.uint64)
    with np.errstate(over="ignore", invalid="ignore"):
        corners = np.asarray(
            fmt.to_bits(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.5, -2.0]))
        ).astype(np.uint64)
    extra = np.array([0, 1, (1 << fmt.nbits) - 1, 1 << (fmt.nbits - 1)], dtype=np.uint64)
    return np.unique(np.concatenate([patterns, corners, extra])).astype(fmt.dtype)


class TestComposedEquivalence:
    @pytest.mark.parametrize("name", EXHAUSTIVE_FORMATS)
    def test_exhaustive_16bit(self, name):
        direct = parse_spec(name, "direct")
        composed = parse_spec(name, "composed")
        patterns = np.arange(1 << direct.nbits, dtype=np.uint64).astype(direct.dtype)
        assert np.array_equal(
            _bits_view(direct.from_bits(patterns)), _bits_view(composed.from_bits(patterns))
        )
        for bit in range(direct.nbits):
            assert np.array_equal(
                direct.classify_bits(patterns, bit), composed.classify_bits(patterns, bit)
            ), bit
        assert np.array_equal(direct.regime_sizes(patterns), composed.regime_sizes(patterns))

    @pytest.mark.parametrize("name", SAMPLED_FORMATS)
    def test_sampled_32bit_with_corners(self, name, rng):
        direct = parse_spec(name, "direct")
        composed = parse_spec(name, "composed")
        patterns = _sample_patterns(direct, rng)
        assert np.array_equal(
            _bits_view(direct.from_bits(patterns)), _bits_view(composed.from_bits(patterns))
        )
        for bit in sorted({0, 1, 7, 15, 16, 17, direct.nbits - 2, direct.nbits - 1}):
            assert np.array_equal(
                direct.classify_bits(patterns, bit), composed.classify_bits(patterns, bit)
            ), bit
        assert np.array_equal(direct.regime_sizes(patterns), composed.regime_sizes(patterns))

    def test_encode_delegates_to_direct(self, rng):
        direct = parse_spec("posit32", "direct")
        composed = parse_spec("posit32", "composed")
        values = rng.normal(0, 100, 4096)
        assert np.array_equal(
            np.asarray(direct.to_bits(values)), np.asarray(composed.to_bits(values))
        )

    def test_decode_flips_matches_direct(self, rng):
        direct = parse_spec("posit32", "direct")
        composed = parse_spec("posit32", "composed")
        patterns = _sample_patterns(direct, rng, count=4096)
        bit_list = np.arange(direct.nbits, dtype=np.int64)
        rows = np.broadcast_to(patterns, (bit_list.size, patterns.size))
        assert np.array_equal(
            _bits_view(direct.decode_flips(rows, bit_list)),
            _bits_view(composed.decode_flips(rows, bit_list)),
        )

    def test_too_wide_format_rejected(self):
        with pytest.raises(ValueError, match="composed"):
            parse_spec("ieee64", "composed")
        assert COMPOSED_MAX_BITS == 32

    def test_backend_class_exported(self):
        assert resolve("posit32", backend="composed").backend_name == "composed"
        assert ComposedLUTBackend.backend_name == "composed"

