"""O(1) metrics for single-element faults.

Every campaign trial changes exactly one element, so each reduction in
:mod:`repro.metrics.pointwise` collapses to a function of (old value, new
value, dataset baseline).  The campaign runs hundreds of thousands of
trials; recomputing full-array reductions per trial would dominate the
runtime for the paper's dataset sizes (Nyx is 512^3 elements), and the
paper itself notes only one element is ever faulty.  Tests assert this
fast path matches :func:`repro.metrics.pointwise.compare_arrays` exactly.

The batched form returns a typed :class:`FaultMetrics` — one float64
array per metric, field names checked at construction instead of by
string key — shared by the trial engine and
:class:`~repro.inject.results.TrialRecords`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from repro.metrics.pointwise import ErrorMetrics, scalar_relative_error
from repro.metrics.summary import SummaryStats
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class FaultMetrics:
    """Per-trial error metrics, one float64 array per metric.

    The typed counterpart of :class:`ErrorMetrics` for batched trials:
    every attribute is an array over the trial axis (any shape, all
    equal), except :attr:`non_finite` which is boolean.  Construction
    validates that every field is filled and equally shaped, so a
    missing or misnamed metric fails at the producer instead of as a
    ``KeyError`` deep inside CSV assembly.
    """

    max_abs_err: np.ndarray
    mean_abs_err: np.ndarray
    #: Pointwise |old-new|/|old|; NaN against a zero original, 0.0 when
    #: both are zero (see :func:`repro.metrics.pointwise.scalar_relative_error`).
    max_rel_err: np.ndarray
    #: QCAT's value-range relative error: |old-new| / baseline range.
    range_rel_err: np.ndarray
    mse: np.ndarray
    rmse: np.ndarray
    nrmse: np.ndarray
    psnr_db: np.ndarray
    l2_err: np.ndarray
    linf_err: np.ndarray
    #: Whether the faulty value is NaN/Inf (boolean array).
    non_finite: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.max_abs_err)
        for field in dataclass_fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, np.ndarray):
                raise TypeError(f"FaultMetrics.{field.name} must be an ndarray")
            if value.shape != shape:
                raise ValueError(
                    f"FaultMetrics.{field.name} has shape {value.shape}, "
                    f"expected {shape}"
                )

    @property
    def shape(self) -> tuple:
        return self.max_abs_err.shape

    def reshape(self, shape) -> FaultMetrics:
        """Same metrics viewed under a different trial-axis shape."""
        return FaultMetrics(
            **{
                field.name: getattr(self, field.name).reshape(shape)
                for field in dataclass_fields(self)
            }
        )


def single_fault_metrics(
    baseline: SummaryStats,
    old_value: float,
    new_value: float,
) -> ErrorMetrics:
    """Metrics of (original, original-with-one-replacement).

    Parameters
    ----------
    baseline:
        Summary of the original array.
    old_value / new_value:
        The element before and after the fault.
    """
    count = baseline.count
    diff = float(old_value) - float(new_value)
    abs_diff = abs(diff)
    has_non_finite = not np.isfinite(new_value)

    max_abs = abs_diff
    mean_abs = abs_diff / count

    max_pointwise = scalar_relative_error(old_value, new_value)

    value_range = baseline.value_range
    if value_range > 0:
        range_rel = max_abs / value_range
    else:
        range_rel = 0.0 if max_abs == 0 else float("inf")

    mse = (diff * diff) / count
    rmse = float(np.sqrt(mse))
    if value_range > 0:
        nrmse = rmse / value_range
    else:
        nrmse = 0.0 if rmse == 0 else float("inf")
    if mse > 0 and value_range > 0:
        psnr = float(20.0 * np.log10(value_range) - 10.0 * np.log10(mse))
    else:
        psnr = float("inf")

    l2 = abs_diff
    return ErrorMetrics(
        max_absolute_error=max_abs,
        mean_absolute_error=mean_abs,
        max_pointwise_relative=max_pointwise,
        value_range_relative=range_rel,
        mean_squared_error=mse,
        root_mean_squared_error=rmse,
        normalized_rmse=nrmse,
        psnr_db=psnr,
        l2_norm_error=l2,
        linf_norm_error=max_abs,
        has_non_finite=has_non_finite,
    )


def vectorized_single_fault(
    baseline: SummaryStats,
    old_values,
    new_values,
) -> FaultMetrics:
    """Batched form of :func:`single_fault_metrics` over trial arrays.

    Returns a :class:`FaultMetrics` of float64 arrays, one entry per
    trial (any array shape — the batched pipeline passes whole
    ``(bits, trials)`` blocks).  This is the hot path of the campaign:
    all trials are evaluated in a handful of NumPy expressions.
    """
    old = np.asarray(old_values, dtype=np.float64)
    new = np.asarray(new_values, dtype=np.float64)
    if old.shape != new.shape:
        raise ValueError(f"shape mismatch: {old.shape} vs {new.shape}")

    telemetry = get_telemetry()
    if not telemetry.enabled:
        return _vectorized_single_fault(baseline, old, new)
    with telemetry.span("metrics.fast"):
        metrics = _vectorized_single_fault(baseline, old, new)
    telemetry.count("metrics.trials_evaluated", old.size)
    return metrics


def _vectorized_single_fault(
    baseline: SummaryStats,
    old: np.ndarray,
    new: np.ndarray,
) -> FaultMetrics:
    count = baseline.count
    # Faulty values can be astronomically large (an IEEE exponent-MSB
    # flip scales by up to 2**1024), so products and quotients here may
    # legitimately overflow to inf; that is the intended semantics.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        diff = old - new
        abs_diff = np.abs(diff)

        # Convention: relative error against a zero original is undefined
        # (NaN), whereas +Inf is reserved for true overflow of a huge but
        # well-defined ratio.  Aggregations rely on this distinction.
        pointwise = abs_diff / np.abs(old)
        pointwise = np.where((old == 0) & (new == 0), 0.0, pointwise)
        pointwise = np.where((old == 0) & (new != 0), np.nan, pointwise)

        value_range = baseline.value_range
        if value_range > 0:
            range_rel = abs_diff / value_range
        else:
            range_rel = np.where(abs_diff == 0, 0.0, np.inf)

        mse = (diff * diff) / count
        rmse = np.sqrt(mse)
    with np.errstate(divide="ignore", invalid="ignore"):
        psnr = np.where(
            (mse > 0) & (value_range > 0),
            20.0 * np.log10(max(value_range, np.finfo(np.float64).tiny))
            - 10.0 * np.log10(np.where(mse > 0, mse, 1.0)),
            np.inf,
        )
    return FaultMetrics(
        max_abs_err=abs_diff,
        mean_abs_err=abs_diff / count,
        max_rel_err=pointwise,
        range_rel_err=range_rel,
        mse=mse,
        rmse=rmse,
        nrmse=rmse / value_range if value_range > 0 else np.where(rmse == 0, 0.0, np.inf),
        psnr_db=psnr,
        l2_err=abs_diff,
        linf_err=abs_diff,
        non_finite=~np.isfinite(new),
    )
