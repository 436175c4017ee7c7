"""Tests that the O(1) single-fault metrics match the full reductions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.metrics.fast import single_fault_metrics, vectorized_single_fault
from repro.metrics.pointwise import compare_arrays
from repro.metrics.summary import SummaryStats


def _assert_metrics_equal(fast, full) -> None:
    for key, fast_value in fast.as_row().items():
        full_value = full.as_row()[key]
        if np.isnan(fast_value) and np.isnan(full_value):
            continue
        assert fast_value == pytest.approx(full_value, rel=1e-9, abs=1e-300), key


class TestSingleFault:
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30),
        st.integers(min_value=0, max_value=29),
        st.floats(allow_nan=False, min_value=-1e30, max_value=1e30),
    )
    def test_matches_full_comparison(self, values, index, new_value):
        index %= len(values)
        array = np.asarray(values, dtype=np.float64)
        baseline = SummaryStats.from_array(array)
        faulty = array.copy()
        faulty[index] = new_value
        fast = single_fault_metrics(baseline, float(array[index]), new_value)
        full = compare_arrays(array, faulty)
        _assert_metrics_equal(fast, full)

    def test_nan_fault(self):
        array = np.array([1.0, 2.0])
        baseline = SummaryStats.from_array(array)
        fast = single_fault_metrics(baseline, 1.0, float("nan"))
        assert fast.has_non_finite

    def test_zero_original_nonzero_fault(self):
        baseline = SummaryStats.from_array(np.array([0.0, 1.0]))
        fast = single_fault_metrics(baseline, 0.0, 5.0)
        assert np.isnan(fast.max_pointwise_relative)
        assert fast.max_absolute_error == 5.0


class TestVectorized:
    def test_matches_scalar(self, rng):
        array = rng.normal(0, 10, 500)
        baseline = SummaryStats.from_array(array)
        old = array[rng.integers(0, 500, 64)]
        new = old + rng.normal(0, 100, 64)
        new[5] = np.nan
        new[6] = np.inf
        old = old.copy()
        old[7] = 0.0

        batch = vectorized_single_fault(baseline, old, new)
        for i in range(64):
            scalar = single_fault_metrics(baseline, float(old[i]), float(new[i]))
            row = scalar.as_row()
            for key in ("max_abs_err", "max_rel_err", "range_rel_err", "mse", "non_finite"):
                got = getattr(batch, key)[i]
                expected = row[key]
                if np.isnan(got) and np.isnan(expected):
                    continue
                assert got == pytest.approx(expected, rel=1e-12), (key, i)

    def test_shape_mismatch(self):
        baseline = SummaryStats.from_array(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            vectorized_single_fault(baseline, np.zeros(3), np.zeros(4))

    def test_overflow_becomes_inf_not_warning(self):
        baseline = SummaryStats.from_array(np.array([1e-3, 1.0]))
        batch = vectorized_single_fault(
            baseline, np.array([1e-300]), np.array([1e300])
        )
        assert batch.max_rel_err[0] == float("inf")


class TestFaultMetricsType:
    def test_is_typed_and_shape_checked(self, rng):
        from repro.metrics.fast import FaultMetrics

        baseline = SummaryStats.from_array(rng.normal(0, 1, 100))
        old = rng.normal(0, 1, (4, 8))
        batch = vectorized_single_fault(baseline, old, old + 1.0)
        assert isinstance(batch, FaultMetrics)
        assert batch.shape == (4, 8)
        assert batch.non_finite.dtype == np.bool_
        flat = batch.reshape(32)
        assert flat.shape == (32,)
        assert np.array_equal(flat.mse, batch.mse.reshape(32))

    def test_mismatched_shapes_rejected(self):
        from dataclasses import replace

        from repro.metrics.fast import FaultMetrics

        baseline = SummaryStats.from_array(np.array([1.0, 2.0]))
        batch = vectorized_single_fault(baseline, np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="shape"):
            replace(batch, mse=np.zeros(5))
        with pytest.raises(TypeError, match="ndarray"):
            replace(batch, mse=[0.0, 0.0, 0.0])
