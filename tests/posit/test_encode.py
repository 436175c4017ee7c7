"""Tests for the vectorized posit encoder."""

import numpy as np
import pytest

from repro.posit._reference import encode_exact
from repro.posit.config import POSIT8, POSIT16, POSIT32, POSIT64, PositConfig
from repro.posit.decode import decode
from repro.posit.encode import encode


def _check_against_reference(values: np.ndarray, config) -> None:
    got = np.asarray(encode(values, config)).astype(np.uint64)
    expected = np.array(
        [encode_exact(float(v), config) for v in values], dtype=np.uint64
    )
    mismatch = got != expected
    assert not np.any(mismatch), (
        f"{np.sum(mismatch)} mismatches; first at value "
        f"{values[np.argmax(mismatch)]!r}: got "
        f"{got[np.argmax(mismatch)]:#x}, expected {expected[np.argmax(mismatch)]:#x}"
    )


class TestRoundTrips:
    @pytest.mark.parametrize("config", [POSIT8, POSIT16], ids=["p8", "p16"])
    def test_exhaustive_roundtrip(self, config):
        patterns = np.arange(1 << config.nbits, dtype=np.uint64)
        values = decode(patterns, config)
        encoded = np.asarray(encode(values, config)).astype(np.uint64)
        keep = patterns != config.nar_pattern
        assert np.array_equal(encoded[keep], patterns[keep])
        assert encoded[~keep][0] == config.nar_pattern

    def test_sampled_roundtrip_p32(self, rng):
        patterns = rng.integers(0, 1 << 32, 5000, dtype=np.uint64)
        patterns = patterns[patterns != POSIT32.nar_pattern]
        values = decode(patterns, POSIT32)
        encoded = np.asarray(encode(values, POSIT32)).astype(np.uint64)
        assert np.array_equal(encoded, patterns)

    def test_sampled_roundtrip_p64_small_fractions(self, rng):
        # Restrict to patterns whose fraction fits float64 so the decode
        # is exact and the roundtrip must be identity.
        patterns = rng.integers(0, 1 << 32, 2000, dtype=np.uint64) << np.uint64(20)
        patterns = patterns[patterns != POSIT64.nar_pattern]
        values = decode(patterns, POSIT64)
        keep = np.isfinite(values)
        encoded = np.asarray(encode(values[keep], POSIT64)).astype(np.uint64)
        assert np.array_equal(encoded, patterns[keep])


class TestAgainstReference:
    def test_normals(self, mixed_floats):
        for config in (POSIT8, POSIT16, POSIT32):
            _check_against_reference(mixed_floats, config)

    def test_boundary_magnitudes_p32(self):
        values = np.array([
            2.0**-120, 2.0**-121, 2.0**-119, 1.5 * 2.0**-120,
            2.0**120, 2.0**119, 1.99 * 2.0**119,
            2.0**-126, 2.0**127,
        ])
        values = np.concatenate([values, -values])
        _check_against_reference(values, POSIT32)

    def test_near_one_p32(self, rng):
        values = 1.0 + rng.uniform(-0.5, 0.5, 2000)
        _check_against_reference(values, POSIT32)

    def test_float32_inputs_exact(self, rng):
        values = rng.normal(0, 100, 1000).astype(np.float32)
        got = np.asarray(encode(values, POSIT32)).astype(np.uint64)
        expected = np.array(
            [encode_exact(float(v), POSIT32) for v in values], dtype=np.uint64
        )
        assert np.array_equal(got, expected)

    def test_subnormal_float64_inputs(self):
        tiny = np.array([5e-324, 1e-310, -5e-324])
        got = np.asarray(encode(tiny, POSIT32)).astype(np.uint64)
        # All far below minpos: saturate to +/-minpos.
        assert got[0] == 1
        assert got[1] == 1
        assert got[2] == (~1 + 1) & POSIT32.mask

    def test_p64(self, rng):
        values = np.concatenate([
            rng.normal(0, 1, 500),
            rng.lognormal(0, 30, 500),
            -rng.lognormal(0, 30, 500),
        ])
        _check_against_reference(values, POSIT64)


class TestSpecials:
    def test_zero_and_negative_zero(self):
        assert encode(np.array([0.0, -0.0]), POSIT32).tolist() == [0, 0]

    def test_nan_inf(self):
        got = encode(np.array([np.nan, np.inf, -np.inf]), POSIT32)
        assert all(int(p) == POSIT32.nar_pattern for p in got)

    def test_saturation(self):
        got = encode(np.array([1e300, -1e300]), POSIT32)
        assert int(got[0]) == POSIT32.maxpos_pattern
        assert int(got[1]) == (~POSIT32.maxpos_pattern + 1) & POSIT32.mask

    def test_no_underflow(self):
        got = encode(np.array([1e-300, -1e-300]), POSIT32)
        assert int(got[0]) == 1
        assert int(got[1]) == (~1 + 1) & POSIT32.mask

    def test_scalar_input_returns_scalar(self):
        pattern = encode(np.float64(1.0), POSIT32)
        assert np.ndim(pattern) == 0
        assert int(pattern) == 0x40000000

    def test_output_dtype_matches_config(self):
        assert encode(np.array([1.0]), POSIT8).dtype == np.uint8
        assert encode(np.array([1.0]), POSIT16).dtype == np.uint16
        assert encode(np.array([1.0]), POSIT32).dtype == np.uint32
        assert encode(np.array([1.0]), POSIT64).dtype == np.uint64


class TestGeneralizedEs:
    @pytest.mark.parametrize("es", [0, 1, 3])
    def test_roundtrip_es_variants(self, es):
        config = PositConfig(nbits=10, es=es)
        patterns = np.arange(1 << 10, dtype=np.uint64)
        values = decode(patterns, config)
        encoded = np.asarray(encode(values, config)).astype(np.uint64)
        keep = patterns != config.nar_pattern
        assert np.array_equal(encoded[keep], patterns[keep])
