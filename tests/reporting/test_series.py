"""Tests for series/figure/table containers."""

import numpy as np
import pytest

from repro.reporting.series import Figure, Series, Table


class TestSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Series("bad", np.arange(3), np.arange(4))

    def test_finite(self):
        series = Series("s", np.arange(4), np.array([1.0, np.nan, np.inf, 2.0]))
        clean = series.finite()
        assert clean.x.tolist() == [0, 3]
        assert clean.y.tolist() == [1.0, 2.0]


class TestFigure:
    def test_add_get_labels(self):
        figure = Figure("t", "x", "y")
        figure.add(Series("a", np.arange(2), np.arange(2)))
        figure.add(Series("b", np.arange(2), np.arange(2)))
        assert figure.labels() == ["a", "b"]
        assert figure.get("a").label == "a"
        with pytest.raises(KeyError):
            figure.get("c")


class TestTable:
    def test_add_row_list_and_dict(self):
        table = Table("t", columns=["a", "b"])
        table.add_row([1, 2])
        table.add_row({"b": 4, "a": 3})
        assert table.rows == [[1, 2], [3, 4]]
        assert table.column("b") == [2, 4]

    def test_row_length_validation(self):
        table = Table("t", columns=["a"])
        with pytest.raises(ValueError):
            table.add_row([1, 2])
