"""Tests for the software codec behind arbitrary ``binary(e,f)`` layouts."""

import warnings

import numpy as np
import pytest

from repro.formats import resolve
from repro.ieee.bits import (
    bits_to_float,
    float_to_bits,
    software_bits_to_float,
    software_float_to_bits,
)
from repro.ieee.formats import BINARY16, IEEEFormat

SOFT16 = IEEEFormat("binary(5,10)", exponent_bits=5, fraction_bits=10, float_dtype=None)


class TestAgainstNativeBinary16:
    """The software codec on a (5,10) layout must match the hardware dtype."""

    def test_decode_every_pattern(self):
        patterns = np.arange(1 << 16, dtype=np.uint64)
        native = bits_to_float(patterns.astype(np.uint16), BINARY16).astype(np.float64)
        soft = software_bits_to_float(patterns, SOFT16)
        nan_mask = np.isnan(native)
        assert np.array_equal(nan_mask, np.isnan(soft))
        assert np.array_equal(native[~nan_mask], soft[~nan_mask])
        # Signed zero survives.
        assert np.signbit(soft[0x8000]) and not np.signbit(soft[0])

    def test_encode_matches_native_rounding(self, rng):
        values = np.concatenate([
            rng.normal(0, 1e4, 50000),
            rng.normal(0, 1e-6, 50000),  # deep subnormal territory
            np.array([0.0, -0.0, np.inf, -np.inf, 65504.0, 65519.9, 65520.0,
                      2.0**-24, 2.0**-25, 2.0**-25 * 1.5, 6e-8, 2.0**-14]),
        ])
        with np.errstate(over="ignore"):
            native = float_to_bits(values, BINARY16).astype(np.uint64)
        assert np.array_equal(native, software_float_to_bits(values, SOFT16))


class TestCustomLayouts:
    @pytest.mark.parametrize("exponent_bits,fraction_bits", [(6, 9), (4, 3), (10, 21)])
    def test_round_trip_every_pattern(self, exponent_bits, fraction_bits):
        fmt = IEEEFormat(
            f"binary({exponent_bits},{fraction_bits})",
            exponent_bits=exponent_bits,
            fraction_bits=fraction_bits,
            float_dtype=None,
        )
        nbits = fmt.nbits
        patterns = np.arange(1 << min(nbits, 16), dtype=np.uint64)
        if nbits > 16:
            rng = np.random.default_rng(0)
            patterns = rng.integers(0, 1 << nbits, 200000, dtype=np.uint64)
        values = software_bits_to_float(patterns, fmt)
        finite = np.isfinite(values)
        re_encoded = software_float_to_bits(values[finite], fmt)
        assert np.array_equal(re_encoded.astype(np.uint64), patterns[finite])

    @pytest.mark.parametrize("spec", ["binary(6,9)", "binary(8,16)"])
    def test_float64_subnormals_store_as_signed_zero_without_warnings(self, spec):
        # Every input lies far below half the layout's smallest subnormal,
        # so each rounds to zero of its own sign; the masked normal-path
        # lanes must not overflow on the way (custom layouts have no
        # scalar reference codec, so the exact patterns are spelled out).
        fmt = resolve(spec)
        sign = 1 << (fmt.nbits - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits = fmt.to_bits(np.array([5e-324, -5e-324, 1e-310]))
        assert bits.tolist() == [0, sign, 0]

    @pytest.mark.parametrize("spec", ["binary(11,20)", "binary(11,4)", "binary(5,10)"])
    def test_special_patterns_decode_without_warnings(self, spec):
        # With 11 exponent bits the inf/NaN exponent is 1024 past the
        # bias; decoding must not overflow on the way to inf and NaN.
        fmt = resolve(spec)
        layout = fmt.format
        inf = layout.exponent_all_ones << layout.fraction_bits
        patterns = np.array([inf, inf | layout.sign_mask, inf | 1], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = fmt.from_bits(patterns.astype(fmt.dtype))
        assert values[0] == np.inf and values[1] == -np.inf and np.isnan(values[2])

    def test_rne_ties_to_even(self):
        fmt = IEEEFormat("binary(6,9)", exponent_bits=6, fraction_bits=9, float_dtype=None)
        # Halfway between fraction 0 and 1 at scale 0 rounds to even (0);
        # halfway between 1 and 2 rounds to even (2).
        half_ulp = 2.0**-10
        assert int(software_float_to_bits(np.array([1.0 + half_ulp]), fmt)[0] & 0x1FF) == 0
        assert int(software_float_to_bits(np.array([1.0 + 3 * half_ulp]), fmt)[0] & 0x1FF) == 2

    def test_overflow_saturates_to_inf(self):
        fmt = IEEEFormat("binary(4,3)", exponent_bits=4, fraction_bits=3, float_dtype=None)
        bits = software_float_to_bits(np.array([1e9, -1e9]), fmt)
        assert np.isinf(software_bits_to_float(bits, fmt)).all()

    def test_out_of_range_layouts_rejected(self):
        wide = IEEEFormat("binary(12,40)", exponent_bits=12, fraction_bits=40, float_dtype=None)
        with pytest.raises(ValueError, match="exponent"):
            software_float_to_bits(np.array([1.0]), wide)
