"""Tests for posit ULP/spacing utilities."""

import numpy as np
import pytest

from repro.posit._reference import decode_exact
from repro.posit.config import POSIT8, POSIT16, POSIT32, POSIT64
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


class TestWideUlp:
    """posit64 neighbours differ below float64's 52 fraction bits."""

    @staticmethod
    def _exact_gap(pattern: int) -> float:
        step = next_down if pattern == POSIT64.maxpos_pattern else next_up
        neighbour = int(step(np.array([pattern], dtype=np.uint64), POSIT64)[0])
        return float(abs(decode_exact(neighbour, POSIT64) - decode_exact(pattern, POSIT64)))

    def _samples(self) -> np.ndarray:
        values = [1.0, 3.0, 1e-3]
        # Every regime boundary useed^k = 2^(4k) and the posit just below it.
        boundaries = np.asarray(encode(2.0 ** (4.0 * np.arange(-61, 62)), POSIT64))
        patterns = np.concatenate(
            [
                np.asarray(encode(np.array(values), POSIT64)),
                boundaries,
                next_down(boundaries, POSIT64),
                np.array([POSIT64.minpos_pattern, POSIT64.maxpos_pattern], dtype=np.uint64),
            ]
        ).astype(np.uint64)
        negated = (-patterns.astype(np.int64)).astype(np.uint64)
        return np.concatenate([patterns, negated])

    def test_exact_gaps(self):
        patterns = self._samples()
        gaps = ulp(patterns, POSIT64)
        expected = np.array([self._exact_gap(int(p)) for p in patterns])
        assert np.all(gaps > 0)
        assert np.array_equal(gaps, expected)

    def test_gap_at_one(self):
        one = encode(np.array([1.0]), POSIT64)
        assert float(ulp(one, POSIT64)[0]) == 2.0**-59
        assert float(spacing_at(np.array([3.0]), POSIT64)[0]) == 2.0**-58

    @pytest.mark.parametrize("config", [POSIT8, POSIT16])
    def test_narrow_formats_unchanged_exhaustive(self, config):
        # The float64 path of narrow formats: up - value, or value - down at maxpos.
        patterns = np.arange(1 << config.nbits, dtype=np.uint64)
        values = decode(patterns, config)
        up = decode(next_up(patterns, config), config)
        down = decode(next_down(patterns, config), config)
        at_max = patterns == config.maxpos_pattern
        spacing = np.where(at_max, values - down, up - values)
        expected = np.where(patterns == config.nar_pattern, np.nan, spacing)
        gaps = ulp(patterns, config)
        assert np.array_equal(gaps.view(np.uint64), expected.view(np.uint64))
