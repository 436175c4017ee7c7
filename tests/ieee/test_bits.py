"""Tests for IEEE bit-level access."""

import warnings

import numpy as np
import pytest

from repro.formats import resolve

from repro.ieee.bits import (
    assemble,
    bits_to_float,
    extract_exponent,
    extract_fraction,
    extract_sign,
    flip_bit,
    flip_float_bit,
    float_to_bits,
)
from repro.ieee.formats import BFLOAT16, BINARY16, BINARY32, BINARY64


class TestViews:
    @pytest.mark.parametrize(
        "fmt, dtype",
        [(BINARY16, np.float16), (BINARY32, np.float32), (BINARY64, np.float64)],
    )
    def test_roundtrip(self, fmt, dtype, rng):
        values = rng.normal(0, 100, 1000).astype(dtype)
        bits = float_to_bits(values, fmt)
        assert bits.dtype == fmt.dtype
        back = bits_to_float(bits, fmt)
        assert np.array_equal(back.view(fmt.dtype), bits)
        assert np.array_equal(back, values)

    def test_known_pattern_186_25(self):
        assert int(float_to_bits(np.float32(186.25), BINARY32)) == 0x433A4000

    def test_one(self):
        assert int(float_to_bits(np.float32(1.0), BINARY32)) == 0x3F800000

    def test_float64_to_float32_rounds_like_store(self):
        value = np.float64(0.1)
        bits = float_to_bits(value, BINARY32)
        assert int(bits) == int(np.float32(0.1).view(np.uint32))


class TestOverflowStore:
    """An out-of-range store is defined to give ±inf, and does not warn."""

    @pytest.mark.parametrize("spec", ["ieee16", "ieee32", "bfloat16"])
    def test_out_of_range_stores_infinity_silently(self, spec):
        fmt = resolve(spec)
        inf_pattern = int(fmt.to_bits(np.inf))
        neg_inf_pattern = int(fmt.to_bits(-np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits = fmt.to_bits([1e300, -1e300])
            values = fmt.round_trip([1e300, -1e300])
            scalar = fmt.round_trip(1e300)
        assert np.asarray(bits).tolist() == [inf_pattern, neg_inf_pattern]
        assert np.asarray(values).tolist() == [np.inf, -np.inf]
        assert float(scalar) == np.inf


class TestBfloat16:
    def test_exact_values_roundtrip(self):
        values = np.array([1.0, -2.0, 0.5, 186.0], dtype=np.float32)
        bits = float_to_bits(values, BFLOAT16)
        assert bits.dtype == np.uint16
        back = bits_to_float(bits, BFLOAT16)
        assert np.array_equal(back, values)

    def test_round_to_nearest_even(self):
        # 1 + 2**-8 is exactly between bfloat16 neighbors 1.0 and 1+2**-7;
        # ties go to the even pattern (1.0, fraction 0).
        value = np.float32(1.0 + 2.0**-8)
        bits = int(float_to_bits(value, BFLOAT16))
        assert bits == 0x3F80  # 1.0
        value = np.float32(1.0 + 3 * 2.0**-8)
        bits = int(float_to_bits(value, BFLOAT16))
        assert bits == 0x3F82  # 1 + 2**-7 * 2

    def test_nan_preserved(self):
        bits = float_to_bits(np.float32(np.nan), BFLOAT16)
        back = bits_to_float(bits, BFLOAT16)
        assert np.isnan(back)


class TestFlip:
    def test_flip_bit_is_xor(self, rng):
        values = rng.normal(0, 10, 100).astype(np.float32)
        bits = float_to_bits(values, BINARY32)
        for bit in (0, 15, 22, 23, 30, 31):
            flipped = flip_bit(bits, bit, BINARY32)
            assert np.all((flipped ^ bits) == np.uint32(1 << bit))

    def test_flip_float_bit_sign(self):
        assert float(flip_float_bit(np.float32(3.5), 31, BINARY32)) == -3.5

    def test_flip_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            flip_bit(np.array([0], dtype=np.uint32), 32, BINARY32)

    def test_flip_exponent_halves_or_doubles(self):
        # Bit 23 is the exponent LSB.  1.0 has exponent 127 (LSB set), so
        # the flip clears it: 0.5.  2.0 has exponent 128 (LSB clear): 4.0.
        assert float(flip_float_bit(np.float32(1.0), 23, BINARY32)) == 0.5
        assert float(flip_float_bit(np.float32(2.0), 23, BINARY32)) == 4.0


class TestFieldAccess:
    def test_extract_and_assemble_roundtrip(self, rng):
        values = rng.normal(0, 100, 500).astype(np.float32)
        bits = float_to_bits(values, BINARY32)
        sign = extract_sign(bits, BINARY32)
        exponent = extract_exponent(bits, BINARY32)
        fraction = extract_fraction(bits, BINARY32)
        rebuilt = assemble(sign, exponent, fraction, BINARY32)
        assert np.array_equal(rebuilt, bits)

    def test_extract_known(self):
        bits = np.array([0x433A4000], dtype=np.uint32)  # 186.25
        assert extract_sign(bits, BINARY32)[0] == 0
        assert extract_exponent(bits, BINARY32)[0] == 134
        assert extract_fraction(bits, BINARY32)[0] == 0x3A4000

    def test_assemble_validates_field_width(self):
        with pytest.raises(ValueError):
            assemble(np.array([0]), np.array([256]), np.array([0]), BINARY32)
        with pytest.raises(ValueError):
            assemble(np.array([0]), np.array([0]), np.array([1 << 23]), BINARY32)

    def test_binary64(self):
        bits = float_to_bits(np.float64(1.0), BINARY64)
        assert extract_exponent(bits, BINARY64) == 1023
