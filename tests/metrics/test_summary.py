"""Tests for summary statistics and the O(1) replacement update."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.metrics.summary import SummaryStats


class TestFromArray:
    def test_matches_numpy(self, rng):
        values = rng.normal(10, 5, 1000)
        stats = SummaryStats.from_array(values)
        assert stats.count == 1000
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.median == pytest.approx(np.median(values))
        assert stats.maximum == np.max(values)
        assert stats.minimum == np.min(values)
        assert stats.std == pytest.approx(np.std(values))
        assert stats.value_range == pytest.approx(np.ptp(values))

    def test_second_order_statistics(self):
        stats = SummaryStats.from_array([1.0, 5.0, 3.0, 5.0, -2.0])
        assert stats.maximum == 5.0
        assert stats.maximum2 == 5.0  # duplicated maximum
        assert stats.minimum == -2.0
        assert stats.minimum2 == 1.0

    def test_single_element(self):
        stats = SummaryStats.from_array([7.0])
        assert stats.maximum2 == float("-inf")
        assert stats.minimum2 == float("inf")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SummaryStats.from_array([])

    @pytest.mark.parametrize("values", [[1.0, np.inf], [1e308, 1e308]])
    def test_non_finite_and_huge_fields_raise_no_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stats = SummaryStats.from_array(values)
        with np.errstate(all="ignore"):
            expected = np.mean(values), np.median(values), np.max(values), np.std(values)
        np.testing.assert_array_equal((stats.mean, stats.median, stats.maximum, stats.std), expected)

    def test_as_row(self):
        stats = SummaryStats.from_array([1.0, 2.0])
        row = stats.as_row()
        assert row["count"] == 2
        assert row["mean"] == 1.5


class TestWithReplacement:
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40),
        st.integers(min_value=0, max_value=39),
        st.floats(min_value=-1e9, max_value=1e9),
    )
    # |mean| >> shift: a shift taken as ``mean - center`` carried the
    # rounding of the totals past the variance bound.
    @example([-886020.0, -877828.0], 0, -875285.2100048225)
    def test_matches_recompute(self, values, index, new_value):
        if index >= len(values):
            index %= len(values)
        array = np.asarray(values, dtype=np.float64)
        stats = SummaryStats.from_array(array)
        updated = stats.with_replacement(float(array[index]), new_value)

        replaced = array.copy()
        replaced[index] = new_value
        expected = SummaryStats.from_array(replaced)

        assert updated.maximum == expected.maximum
        assert updated.minimum == expected.minimum
        assert updated.mean == pytest.approx(expected.mean, abs=1e-6, rel=1e-9)
        # Single-pass variance updates carry rounding proportional to the
        # intermediate magnitudes (the deviations of the swapped values
        # from the original center), which can dwarf a tiny final
        # variance; compare in variance space against that honest bound.
        old_dev = float(array[index]) - stats.center
        new_dev = new_value - stats.center
        scale = max(old_dev * old_dev, new_dev * new_dev, expected.std**2, 1e-30)
        epsilon = np.finfo(np.float64).eps
        tolerance = 64 * epsilon * scale + 1e-12
        assert abs(updated.std**2 - expected.std**2) <= tolerance

    def test_replacing_unique_maximum_drops_exactly(self):
        stats = SummaryStats.from_array([1.0, 2.0, 9.0])
        updated = stats.with_replacement(9.0, 0.0)
        assert updated.maximum == 2.0
        assert updated.minimum == 0.0

    def test_replacing_duplicated_maximum_keeps_it(self):
        stats = SummaryStats.from_array([1.0, 9.0, 9.0])
        updated = stats.with_replacement(9.0, 0.0)
        assert updated.maximum == 9.0

    def test_value_range_degenerate(self):
        stats = SummaryStats.from_array([3.0, 3.0])
        assert stats.value_range == 0.0
