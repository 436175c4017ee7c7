"""Bit-exact properties of the field baseline and the conversion report.

``SummaryStats.from_array`` takes its median and second extremes from one
sort, and ``conversion_report`` computes in place.  Both must return the
same bits as the NumPy reductions they replace, which are kept below as
the reference: every field is compared under ``.view(np.int64)``, so a
``-0.0`` for ``0.0`` or a NaN of another payload counts as a difference.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.datasets import ALL_PRESETS
from repro.formats import resolve
from repro.inject.campaign import conversion_report
from repro.metrics.summary import SummaryStats

FIELDS = ("count", "mean", "median", "maximum", "minimum", "std", "total",
          "centered_sq", "center", "maximum2", "minimum2", "centered_sum")


def reference_from_array(values) -> dict:
    """The summary as separate NumPy reductions (three partitions)."""
    array = np.asarray(values, dtype=np.float64).reshape(-1)
    with np.errstate(all="ignore"):
        total = float(np.sum(array))
        center = total / array.size
        deviations = array - center
        if array.size >= 2:
            maximum2 = float(np.partition(array, -2)[-2])
            minimum2 = float(np.partition(array, 1)[1])
        else:
            maximum2, minimum2 = float("-inf"), float("inf")
        return dict(
            count=int(array.size), mean=float(np.mean(array)),
            median=float(np.median(array)), maximum=float(np.max(array)),
            minimum=float(np.min(array)), std=float(np.std(array)), total=total,
            centered_sq=float(np.sum(deviations * deviations)), center=center,
            maximum2=maximum2, minimum2=minimum2,
            centered_sum=float(np.sum(deviations)),
        )


def plain_sort_from_array(values) -> dict:
    """A mutant: every order statistic from the sort, no zero/NaN rule."""
    array = np.asarray(values, dtype=np.float64).reshape(-1)
    summary = reference_from_array(array)
    ordered, n = np.sort(array), array.size
    with np.errstate(all="ignore"):
        summary["median"] = float(np.mean(ordered[n // 2 - 1 + n % 2 : n // 2 + 1]))
    if n >= 2:
        summary["maximum2"], summary["minimum2"] = float(ordered[-2]), float(ordered[1])
    return summary


def reference_conversion_report(data, stored) -> tuple:
    """The report with out-of-place arithmetic and nested ``np.where``."""
    raw = np.asarray(data, dtype=np.float64).reshape(-1)
    stored = np.asarray(stored).reshape(-1)
    with np.errstate(all="ignore"):
        rel = np.abs(raw - stored) / np.abs(raw)
        rel = np.where(raw == 0, np.where(stored == 0, 0.0, np.inf), rel)
        finite = rel[np.isfinite(rel)]
        return (
            float(np.mean(finite)) if finite.size else 0.0,
            float(np.max(finite)) if finite.size else 0.0,
            float(np.mean(stored == raw)),
        )


def bit_patterns(values) -> list[int]:
    return [int(np.float64(value).view(np.int64)) for value in values]


def from_array_bits(values) -> list[int]:
    stats = SummaryStats.from_array(values)
    return bit_patterns(getattr(stats, name) for name in FIELDS)


def assert_same_summary(values, summarize=None) -> None:
    if summarize is None:
        actual = from_array_bits(values)
    else:
        actual = bit_patterns(summarize(values)[name] for name in FIELDS)
    expected = bit_patterns(reference_from_array(values)[name] for name in FIELDS)
    assert actual == expected


SPECIALS = (0.0, -0.0, 1.0, -1.0, -2.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324)
ELEMENTS = st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))
#: Short arrays of anything, sizes 1-3 among them.
SHORT = st.lists(ELEMENTS, min_size=1, max_size=12).map(np.array)
#: Longer arrays of few distinct values, so duplicates and signed zeros
#: meet in the sort's and the partition's larger-array code paths.
LONG = st.builds(
    lambda pool, size, seed: np.random.default_rng(seed).choice(np.array(pool), size=size),
    st.lists(ELEMENTS, min_size=1, max_size=5),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
)
FIELD_VALUES = st.one_of(SHORT, LONG)

#: ``np.median`` gives ``+0.0`` here while the sorted middle is ``-0.0``.
MEDIAN_ZERO = [-0.0, 1.0, -1.0]
#: Sort and partition place ``-0.0`` and ``0.0`` differently at the
#: second-largest position of this array (NumPy 2.4, x86-64 SIMD sort).
ZERO_ORDER = np.random.default_rng(0).choice(np.array([-0.0, 0.0, -1.0, -2.0]), size=257)


class TestFromArrayBits:
    @given(FIELD_VALUES)
    @example(np.array(MEDIAN_ZERO))
    @example(ZERO_ORDER)
    @example(np.array([7.0]))
    @example(np.array([1.0, np.nan, 2.0]))
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference(self, values):
        assert_same_summary(values)

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda preset: preset.key)
    def test_presets(self, preset):
        data = preset.generate(2023, 2048)
        assert_same_summary(data)
        for name in ("posit32", "ieee32"):
            target = resolve(name)
            assert_same_summary(target.from_bits(target.to_bits(data)))

    def test_median_zero_is_positive(self):
        assert np.signbit(np.sort(MEDIAN_ZERO)[1])
        assert not np.signbit(SummaryStats.from_array(MEDIAN_ZERO).median)


class TestPlainSortMutant:
    """The zero and NaN rules are needed: a plain sort fails the property."""

    def test_nan_field(self):
        with pytest.raises(AssertionError):
            assert_same_summary(np.array([1.0, np.nan, 2.0]), plain_sort_from_array)

    def test_zero_second_extreme(self):
        ordered, partitioned = np.sort(ZERO_ORDER)[-2], np.partition(ZERO_ORDER, -2)[-2]
        if np.signbit(ordered) == np.signbit(partitioned):
            pytest.skip("this NumPy sorts the pinned signed zeros like its partition")
        with pytest.raises(AssertionError):
            assert_same_summary(ZERO_ORDER, plain_sort_from_array)

    def test_fails_the_property(self):
        @given(FIELD_VALUES)
        @settings(derandomize=True, database=None, max_examples=300,
                  suppress_health_check=[HealthCheck.too_slow])
        def property_of_mutant(values):
            assert_same_summary(values, plain_sort_from_array)

        with pytest.raises(AssertionError):
            property_of_mutant()


@st.composite
def raw_and_stored(draw):
    raw = draw(FIELD_VALUES)
    others = draw(FIELD_VALUES)
    others = np.resize(others, raw.shape)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        with np.errstate(over="ignore"):
            stored = raw.astype(np.float32)
    else:
        keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(raw.size) < 0.5
        stored = np.where(keep, raw, others)
    return raw, stored


class TestConversionReportBits:
    @given(raw_and_stored())
    @example((np.array([0.0, -0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0])))
    @example((np.array([np.inf, 0.0, np.nan]), np.array([np.inf, np.nan, 1.0])))
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference(self, pair):
        raw, stored = pair
        report = conversion_report(raw, stored)
        actual = (report.mean_relative_error, report.max_relative_error, report.exact_fraction)
        assert bit_patterns(actual) == bit_patterns(reference_conversion_report(raw, stored))

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda preset: preset.key)
    @pytest.mark.parametrize("name", ["posit32", "ieee32", "posit16"])
    def test_presets(self, preset, name):
        data = preset.generate(2023, 2048)
        target = resolve(name)
        report = conversion_report(data, target.from_bits(target.to_bits(data)))
        actual = (report.mean_relative_error, report.max_relative_error, report.exact_fraction)
        expected = reference_conversion_report(data, target.from_bits(target.to_bits(data)))
        assert bit_patterns(actual) == bit_patterns(expected)
