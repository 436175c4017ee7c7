"""The table-free run-length codec equals the decomposition, bit for bit.

:mod:`repro.posit.lean` decodes, classifies and reports regimes for
posits of up to 32 bits from one leading-run count.  Every test compares
it with the field decomposition, which shares no code with it
(``decode_fields(decompose(...))``, ``classify_bit_from_fields``,
``decompose(...).run``): exhaustively for narrow widths, on samples plus
special-value corners at 32 bits, and as a Hypothesis property over
every width and ``es``.  ``repro.posit.decode`` and ``classify_bit``
route through the lean codec themselves, so they are no reference.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.formats import flip_patterns, resolve
from repro.posit import (
    LEAN_MAX_BITS,
    PositConfig,
    decode,
    decompose,
    lean_classify,
    lean_decode,
    lean_regime,
)
from repro.posit.decode import decode_fields
from repro.posit.fields import classify_bit_from_fields

#: Narrow posits walked over every pattern: the standard widths, the
#: 8-12-bit variants around es = 2, and a 16-bit es = 1.
EXHAUSTIVE_CONFIGS = [PositConfig(8), PositConfig(16), PositConfig(16, 1)] + [
    PositConfig(nbits, es) for nbits in range(8, 13) for es in (0, 1, 3, 4)
]


def _bits_view(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def reference_decode(patterns, config: PositConfig) -> np.ndarray:
    """Decode through the field decomposition, never the lean codec."""
    return decode_fields(decompose(np.atleast_1d(patterns), config), config).reshape(
        np.shape(patterns)
    )


def reference_classify(patterns, bit: int, config: PositConfig) -> np.ndarray:
    return classify_bit_from_fields(decompose(patterns, config), bit, config)


def assert_lean_matches(patterns, config: PositConfig) -> None:
    """Lean decode, regime and every bit's field equal the decomposition."""
    patterns = np.asarray(patterns, dtype=np.uint64).astype(config.dtype)
    assert np.array_equal(
        _bits_view(lean_decode(patterns, config)), _bits_view(reference_decode(patterns, config))
    )
    assert np.array_equal(lean_regime(patterns, config), decompose(patterns, config).run)
    for bit in range(config.nbits):
        assert np.array_equal(
            lean_classify(patterns, bit, config), reference_classify(patterns, bit, config)
        ), bit


def _sample_patterns(fmt, rng, count=60000):
    """Uniform patterns plus the encodings of the specials and the corners."""
    patterns = rng.integers(0, 1 << fmt.nbits, size=count, dtype=np.uint64)
    with np.errstate(over="ignore", invalid="ignore"):
        corners = np.asarray(
            fmt.to_bits(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.5, -2.0]))
        ).astype(np.uint64)
    extra = np.array([0, 1, (1 << fmt.nbits) - 1, 1 << (fmt.nbits - 1)], dtype=np.uint64)
    return np.unique(np.concatenate([patterns, corners, extra])).astype(fmt.dtype)


@pytest.mark.parametrize(
    "config", EXHAUSTIVE_CONFIGS, ids=lambda config: f"posit{config.nbits}es{config.es}"
)
def test_exhaustive_narrow(config):
    assert_lean_matches(np.arange(1 << config.nbits, dtype=np.uint64), config)


class TestPosit32:
    """posit32 through its format instance, against the ``decompose`` path."""

    def test_sampled_with_corners(self, rng):
        fmt = resolve("posit32")
        patterns = _sample_patterns(fmt, rng)
        assert np.array_equal(
            _bits_view(fmt.from_bits(patterns)),
            _bits_view(reference_decode(patterns, fmt.config)),
        )
        for bit in sorted({0, 1, 7, 15, 16, 17, fmt.nbits - 2, fmt.nbits - 1}):
            assert np.array_equal(
                fmt.classify_bits(patterns, bit), reference_classify(patterns, bit, fmt.config)
            ), bit
        assert np.array_equal(fmt.regime_sizes(patterns), decompose(patterns, fmt.config).run)

    def test_decode_flips_matches_decompose(self, rng):
        fmt = resolve("posit32")
        patterns = _sample_patterns(fmt, rng, count=4096)
        bit_list = np.arange(fmt.nbits, dtype=np.int64)
        rows = np.broadcast_to(patterns, (bit_list.size, patterns.size))
        flipped = flip_patterns(rows, bit_list, fmt.dtype)
        assert np.array_equal(
            _bits_view(fmt.decode_flips(rows, bit_list)),
            _bits_view(reference_decode(flipped, fmt.config)),
        )

    def test_every_run_length(self, rng):
        lengths = rng.integers(0, 32, size=4096)
        terminator = (np.int64(1) << lengths) >> 1
        tails = rng.integers(0, 1 << 30, size=4096) & np.maximum(terminator - 1, 0)
        invert = rng.integers(0, 2, size=4096) * 0x7FFFFFFF
        sign = rng.integers(0, 2, size=4096) << 31
        assert_lean_matches(((terminator | tails) ^ invert) | sign, PositConfig(32))


class TestShapesAndLimits:
    def test_scalar_and_0d_inputs(self):
        config = PositConfig(32)
        one = np.uint32(0x40000000)
        assert lean_decode(one, config).shape == ()
        assert float(lean_decode(one, config)) == 1.0
        assert int(lean_regime(one, config)) == 1
        assert lean_decode([0, 0x80000000], config)[0] == 0.0
        assert np.isnan(lean_decode([0, 0x80000000], config)[1])

    def test_2d_input_keeps_its_shape(self, rng):
        config = PositConfig(16, 1)
        patterns = rng.integers(0, 1 << 16, size=(3, 5)).astype(np.uint16)
        assert lean_decode(patterns, config).shape == (3, 5)
        assert lean_classify(patterns, 4, config).shape == (3, 5)
        assert np.array_equal(lean_decode(patterns, config), reference_decode(patterns, config))

    def test_bits_above_the_width_are_masked(self):
        config = PositConfig(8)
        assert lean_decode(np.uint64(0xFF40), config) == reference_decode(np.uint64(0x40), config)
        assert lean_regime(np.uint64(0xFF40), config) == 1

    def test_rejects_wider_than_32_bits(self):
        assert LEAN_MAX_BITS == 32
        with pytest.raises(ValueError, match="32 bits"):
            lean_decode(np.array([1], dtype=np.uint64), PositConfig(64))
        with pytest.raises(ValueError, match="bit_index"):
            lean_classify(np.array([1], dtype=np.uint32), 32, PositConfig(32))

    def test_posit64_keeps_the_decompose_path(self, rng):
        fmt = resolve("posit64")
        patterns = rng.integers(0, 2**63, size=2048, dtype=np.uint64) << np.uint64(1)
        assert np.array_equal(
            _bits_view(fmt.from_bits(patterns)), _bits_view(decode(patterns, fmt.config))
        )
        assert np.array_equal(fmt.regime_sizes(patterns), decompose(patterns, fmt.config).run)


@st.composite
def configs_and_patterns(draw):
    config = PositConfig(draw(st.integers(3, 32)), draw(st.integers(0, 4)))
    patterns = draw(
        st.lists(st.integers(0, config.mask), min_size=1, max_size=64)
        | st.lists(st.sampled_from([0, 1, config.mask, config.sign_mask,
                                    config.maxpos_pattern, config.sign_mask + 1]),
                   min_size=1, max_size=8)
    )
    return config, patterns


@given(configs_and_patterns())
def test_lean_equals_decompose_property(case):
    config, patterns = case
    assert_lean_matches(patterns, config)
