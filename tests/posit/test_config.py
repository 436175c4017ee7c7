"""Tests for posit format configuration."""

import numpy as np
import pytest

from repro.posit.config import (
    POSIT8,
    POSIT16,
    POSIT32,
    POSIT64,
    PositConfig,
    standard_config,
)


class TestValidation:
    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            PositConfig(nbits=2)

    def test_rejects_wide_width(self):
        with pytest.raises(ValueError):
            PositConfig(nbits=65)

    def test_rejects_bad_es(self):
        with pytest.raises(ValueError):
            PositConfig(nbits=32, es=5)
        with pytest.raises(ValueError):
            PositConfig(nbits=32, es=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            POSIT32.nbits = 16  # type: ignore[misc]


class TestDerivedConstants:
    def test_posit32_standard_values(self):
        assert POSIT32.useed_log2 == 4
        assert POSIT32.sign_mask == 0x80000000
        assert POSIT32.nar_pattern == 0x80000000
        assert POSIT32.maxpos_pattern == 0x7FFFFFFF
        assert POSIT32.minpos_pattern == 1
        assert POSIT32.max_scale == 120
        assert POSIT32.maxpos == 2.0**120
        assert POSIT32.minpos == 2.0**-120
        assert POSIT32.max_fraction_bits == 27

    def test_posit8_values(self):
        assert POSIT8.max_scale == 24
        assert POSIT8.max_fraction_bits == 3
        assert POSIT8.dtype == np.uint8

    def test_posit16_values(self):
        assert POSIT16.max_scale == 56
        assert POSIT16.max_fraction_bits == 11
        assert POSIT16.dtype == np.uint16

    def test_posit64_values(self):
        assert POSIT64.max_scale == 248
        assert POSIT64.max_fraction_bits == 59
        assert POSIT64.dtype == np.uint64

    def test_mask_widths(self):
        assert POSIT8.mask == 0xFF
        assert POSIT16.mask == 0xFFFF
        assert POSIT64.mask == (1 << 64) - 1

    def test_non_power_of_two_width(self):
        config = PositConfig(nbits=10, es=2)
        assert config.dtype == np.uint16
        assert config.mask == (1 << 10) - 1

    def test_es_zero(self):
        config = PositConfig(nbits=8, es=0)
        assert config.useed_log2 == 1
        assert config.max_scale == 6


class TestStandardConfigs:
    def test_registry(self):
        for nbits, config in ((8, POSIT8), (16, POSIT16), (32, POSIT32), (64, POSIT64)):
            assert config.nbits == nbits
            assert config.es == 2

    def test_standard_config_cached(self):
        assert standard_config(32) is standard_config(32)

    def test_describe(self):
        text = POSIT32.describe()
        assert "posit32" in text
        assert "27" in text

    def test_str(self):
        assert str(POSIT32) == "posit32es2"
