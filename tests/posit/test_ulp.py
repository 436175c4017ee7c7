"""Tests for posit ULP/spacing utilities."""

import numpy as np
import pytest

from repro.posit.config import POSIT8, POSIT16, POSIT32
from repro.posit.decode import decode
from repro.posit.encode import encode
from repro.posit.ulp import next_down, next_up, relative_spacing_at, spacing_at, ulp


class TestNeighbors:
    def test_next_up_orders(self):
        pattern = np.array([int(encode(np.float64(1.0), POSIT32))], dtype=np.uint64)
        up = next_up(pattern, POSIT32)
        assert float(decode(up.astype(np.uint64), POSIT32)[0]) > 1.0

    def test_next_up_saturates_at_maxpos(self):
        maxpos = np.array([POSIT32.maxpos_pattern], dtype=np.uint64)
        assert int(next_up(maxpos, POSIT32)[0]) == POSIT32.maxpos_pattern

    def test_next_down_saturates_at_most_negative(self):
        most_negative = np.array([(POSIT32.nar_pattern + 1) & POSIT32.mask], dtype=np.uint64)
        assert int(next_down(most_negative, POSIT32)[0]) == int(most_negative[0])

    def test_nar_fixed_point(self):
        nar = np.array([POSIT32.nar_pattern], dtype=np.uint64)
        assert int(next_up(nar, POSIT32)[0]) == POSIT32.nar_pattern
        assert int(next_down(nar, POSIT32)[0]) == POSIT32.nar_pattern

    def test_up_down_inverse(self, rng):
        patterns = rng.integers(2, POSIT16.maxpos_pattern - 1, 500, dtype=np.uint64)
        down_up = next_up(next_down(patterns, POSIT16), POSIT16)
        assert np.array_equal(down_up.astype(np.uint64), patterns)


class TestUlp:
    def test_exhaustive_p8_positive(self):
        # ulp must equal the actual gap to the next table value.
        table = decode(np.arange(256, dtype=np.uint64), POSIT8)
        patterns = np.arange(1, POSIT8.maxpos_pattern, dtype=np.uint64)
        gaps = ulp(patterns, POSIT8)
        expected = table[2 : POSIT8.maxpos_pattern + 1] - table[1 : POSIT8.maxpos_pattern]
        assert np.allclose(gaps, expected, rtol=0, atol=0)

    def test_tapered_spacing(self):
        # Spacing grows away from 1.
        near_one = float(spacing_at(np.array([1.0]), POSIT32)[0])
        at_million = float(spacing_at(np.array([1.0e6]), POSIT32)[0])
        assert at_million > near_one

    def test_relative_spacing_minimal_near_one(self):
        values = np.array([1.0, 64.0, 2.0**40, 2.0**-40])
        rel = relative_spacing_at(values, POSIT32)
        assert np.argmin(rel) == 0

    def test_zero_relative_spacing_inf(self):
        assert relative_spacing_at(np.array([0.0]), POSIT32)[0] == np.inf

    def test_nar_nan(self):
        nar = np.array([POSIT32.nar_pattern], dtype=np.uint64)
        assert np.isnan(ulp(nar, POSIT32)[0])

    def test_spacing_matches_decimal_accuracy_profile(self):
        # -log10(relative spacing) tracks the Fig. 7 accuracy numbers.
        from repro.analysis.accuracy import posit_decimal_accuracy

        rel = float(relative_spacing_at(np.array([1.0]), POSIT32)[0])
        digits = -np.log10(rel)
        assert digits == pytest.approx(posit_decimal_accuracy(0, POSIT32), abs=0.6)
