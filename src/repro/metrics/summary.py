"""Summary statistics (the campaign's per-dataset baseline).

The paper computes mean, median, max, min, and standard deviation of each
field before injecting faults (Table 1) and again after each trial to
detect drastic shifts.  ``SummaryStats`` bundles those numbers with an
update rule for the single-element faults the campaign injects, so the
faulty summary can be produced in O(1) instead of re-reducing the array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Mean / median / extremes / spread of one array."""

    count: int
    mean: float
    median: float
    maximum: float
    minimum: float
    std: float
    #: Plain sum, retained for O(1) mean updates.
    total: float
    #: Sum of squared deviations from :attr:`center` (the original mean).
    #: Centering avoids the catastrophic cancellation the naive
    #: E[x^2] - mean^2 update suffers when |mean| >> std.
    centered_sq: float
    center: float
    #: Second-largest / second-smallest elements (with multiplicity), so
    #: removing the extremum still yields the exact new extremum.  For a
    #: single-element array these are -inf / +inf.
    maximum2: float = float("-inf")
    minimum2: float = float("inf")
    #: Sum of deviations from :attr:`center`.  ``center`` is the rounded
    #: mean, so this residual is tiny but not zero; carrying it keeps the
    #: mean shift of a replacement at the scale of the deviations instead
    #: of the rounding of :attr:`total`.
    centered_sum: float = 0.0

    @classmethod
    def from_array(cls, values) -> "SummaryStats":
        """Summarize ``values``, bit-identical to the separate NumPy reductions.

        ``np.mean`` is ``total / n`` and ``np.std`` is ``sqrt(centered_sq / n)``.
        One sort gives the median (``np.median``'s last step: the mean of the
        middle values) and the second extremes.  Sort and partition may order
        ``-0.0`` and ``0.0`` differently, and ``np.median`` returns the
        partition's NaN, so a zero second extreme or a NaN field keeps that call.
        """
        array = np.asarray(values, dtype=np.float64).reshape(-1)
        n = array.size
        if n == 0:
            raise ValueError("cannot summarize an empty array")
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(array))
            center = total / n
            deviations = array - center
            centered_sum = float(np.sum(deviations))
            centered_sq = float(np.sum(np.multiply(deviations, deviations, out=deviations)))
            del deviations
            ordered = np.sort(array)
            has_nan = bool(np.isnan(ordered[-1]))
            median = np.median(array) if has_nan else np.mean(ordered[(n - 1) // 2 : n // 2 + 1])
        maximum2, minimum2 = float("-inf"), float("inf")
        if n >= 2:
            maximum2, minimum2 = float(ordered[-2]), float(ordered[1])
            if has_nan or maximum2 == 0:
                maximum2 = float(np.partition(array, -2)[-2])
            if has_nan or minimum2 == 0:
                minimum2 = float(np.partition(array, 1)[1])
        return cls(
            count=n,
            mean=center,
            median=float(median),
            maximum=float(np.max(array)),
            minimum=float(np.min(array)),
            std=float(np.sqrt(centered_sq / n)),
            total=total,
            centered_sq=centered_sq,
            center=center,
            maximum2=maximum2,
            minimum2=minimum2,
            centered_sum=centered_sum,
        )

    @property
    def value_range(self) -> float:
        """max - min; the denominator of QCAT's value-range relative error."""
        return self.maximum - self.minimum

    def with_replacement(self, old_value: float, new_value: float) -> "SummaryStats":
        """Summary after replacing one occurrence of ``old_value``.

        Median is not maintained exactly (a single replacement moves it by
        at most one order statistic); the campaign only monitors
        mean/max/min/std shifts, matching the paper's usage.

        Accuracy: mean and extremes are exact (extremes via the tracked
        second-order statistics).  The variance update is single-pass and
        carries rounding of order eps * max(dev_old, dev_new)**2 / count,
        where dev is the distance from the original mean — negligible for
        campaign faults (whose damage dominates the variance) but visible
        when a replacement lands far from the center yet leaves a tiny
        variance.
        """
        new_total = self.total - old_value + new_value
        mean = new_total / self.count
        old_dev = old_value - self.center
        new_dev = new_value - self.center
        new_centered_sq = self.centered_sq - old_dev * old_dev + new_dev * new_dev
        # The shift is taken from deviations, not from ``mean - center``:
        # both of those carry rounding of order eps * |mean|, which the
        # squared shift would carry into a small variance.
        new_centered_sum = self.centered_sum - old_dev + new_dev
        mean_shift = new_centered_sum / self.count
        variance = max(new_centered_sq / self.count - mean_shift * mean_shift, 0.0)
        # Exact extremes: if the replaced element was (an instance of)
        # the extremum, the survivor extremum is the second order
        # statistic, which equals the first when it was duplicated.
        surviving_max = self.maximum2 if old_value == self.maximum else self.maximum
        surviving_min = self.minimum2 if old_value == self.minimum else self.minimum
        maximum = max(surviving_max, new_value)
        minimum = min(surviving_min, new_value)
        return SummaryStats(
            count=self.count,
            mean=mean,
            median=self.median,
            maximum=maximum,
            minimum=minimum,
            std=float(np.sqrt(variance)),
            total=new_total,
            centered_sq=new_centered_sq,
            center=self.center,
            maximum2=self.maximum2,
            minimum2=self.minimum2,
            centered_sum=new_centered_sum,
        )

    def as_row(self) -> dict[str, float]:
        """Flat dict for CSV/report output (Table 1 columns)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "max": self.maximum,
            "min": self.minimum,
            "std": self.std,
        }
