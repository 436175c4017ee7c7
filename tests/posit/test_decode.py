"""Tests for the vectorized posit decoder."""

import numpy as np

from repro.bitops import to_signed
from repro.posit._reference import decode_float
from repro.posit.config import POSIT8, POSIT16, POSIT32, POSIT64, PositConfig
from repro.posit.decode import decode


def _assert_same_values(got: np.ndarray, expected: np.ndarray) -> None:
    same = (got == expected) | (np.isnan(got) & np.isnan(expected))
    assert np.all(same), f"first mismatch at {np.argmin(same)}"


class TestAgainstReference:
    def test_exhaustive_p8(self):
        patterns = np.arange(256, dtype=np.uint64)
        got = decode(patterns, POSIT8)
        expected = np.array([decode_float(p, POSIT8) for p in range(256)])
        _assert_same_values(got, expected)

    def test_exhaustive_p16(self):
        patterns = np.arange(1 << 16, dtype=np.uint64)
        got = decode(patterns, POSIT16)
        expected = np.array([decode_float(int(p), POSIT16) for p in patterns[:: (1 << 16) // 4096]])
        _assert_same_values(got[:: (1 << 16) // 4096], expected)

    def test_sampled_p32(self, rng):
        patterns = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        got = decode(patterns, POSIT32)
        expected = np.array([decode_float(int(p), POSIT32) for p in patterns])
        _assert_same_values(got, expected)

    def test_sampled_p64(self, rng):
        patterns = rng.integers(0, 1 << 63, 500, dtype=np.uint64)
        patterns = np.concatenate([patterns, patterns | np.uint64(1 << 63)])
        got = decode(patterns, POSIT64)
        expected = np.array([decode_float(int(p), POSIT64) for p in patterns])
        _assert_same_values(got, expected)

    def test_nonstandard_width(self, rng):
        config = PositConfig(nbits=12, es=2)
        patterns = np.arange(1 << 12, dtype=np.uint64)
        got = decode(patterns, config)
        expected = np.array([decode_float(int(p), config) for p in patterns])
        _assert_same_values(got, expected)


class TestSpecials:
    def test_zero(self):
        assert decode(np.uint64(0), POSIT32) == 0.0

    def test_nar_is_nan(self):
        assert np.isnan(decode(np.uint64(0x80000000), POSIT32))

    def test_minpos_maxpos(self):
        assert decode(np.uint64(1), POSIT32) == 2.0**-120
        assert decode(np.uint64(0x7FFFFFFF), POSIT32) == 2.0**120

    def test_scalar_input_returns_scalar(self):
        value = decode(np.uint64(0x40000000), POSIT32)
        assert np.ndim(value) == 0
        assert value == 1.0


class TestLatticeProperties:
    def test_monotone_in_signed_pattern_order_p16(self):
        patterns = np.arange(1 << 16, dtype=np.uint64)
        values = decode(patterns, POSIT16)
        signed = to_signed(patterns, 16)
        order = np.argsort(signed, kind="stable")
        ordered = values[order]
        # Drop NaR (the most negative signed pattern).
        ordered = ordered[~np.isnan(ordered)]
        assert np.all(np.diff(ordered) > 0)

    def test_negation_symmetry_p16(self):
        patterns = np.arange(1, 1 << 16, dtype=np.uint64)
        patterns = patterns[patterns != POSIT16.nar_pattern]
        values = decode(patterns, POSIT16)
        negated = decode((~patterns + np.uint64(1)) & np.uint64(0xFFFF), POSIT16)
        assert np.array_equal(values, -negated)

    def test_input_bits_above_width_are_masked(self):
        wide = np.uint64((1 << 40) | 0x40000000)
        assert decode(wide, POSIT32) == 1.0
