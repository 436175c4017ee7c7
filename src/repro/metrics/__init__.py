"""QCAT-equivalent error metrics and summary statistics."""

from repro.metrics.fast import FaultMetrics, single_fault_metrics, vectorized_single_fault
from repro.metrics.mred import mred, relative_error_distance
from repro.metrics.pointwise import (
    ErrorMetrics,
    absolute_error,
    compare_arrays,
    pointwise_relative_error,
    scalar_relative_error,
)
from repro.metrics.summary import SummaryStats

__all__ = [
    "ErrorMetrics",
    "FaultMetrics",
    "SummaryStats",
    "absolute_error",
    "compare_arrays",
    "mred",
    "pointwise_relative_error",
    "relative_error_distance",
    "scalar_relative_error",
    "single_fault_metrics",
    "vectorized_single_fault",
]
