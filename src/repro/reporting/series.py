"""Series and table containers for experiment output.

Experiments return these instead of printing directly, so tests can
assert on shapes/claims and the CLI / benches render them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Series:
    """One labelled curve: x positions and y values (a figure line)."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y)
        if self.x.shape != self.y.shape:
            raise ValueError(f"series {self.label!r}: x{self.x.shape} vs y{self.y.shape}")

    def finite(self) -> "Series":
        """Drop non-finite points (for log-scale style summaries)."""
        mask = np.isfinite(self.y)
        return Series(self.label, self.x[mask], self.y[mask])


@dataclass
class Figure:
    """A named collection of series — one paper figure."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, series: Series) -> None:
        self.series.append(series)

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in figure {self.title!r}")

    def labels(self) -> list[str]:
        return [series.label for series in self.series]


@dataclass
class Table:
    """A named table — one paper table (or a figure's numbers)."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, values: list | dict) -> None:
        if isinstance(values, dict):
            values = [values.get(column) for column in self.columns]
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table {self.title!r} has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]
