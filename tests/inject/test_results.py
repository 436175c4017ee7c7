"""Tests for trial records and CSV round-trip."""

from dataclasses import fields

import numpy as np
import pytest

from repro.apps.campaign import AppTrialRecords
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.inject.results import BOOL, FLOAT, INT, OPTIONAL, STR, TrialRecords


@pytest.fixture
def records(small_field):
    result = run_campaign(small_field, "posit32", CampaignConfig(trials_per_bit=4, seed=2))
    return result.records


class TestFilters:
    def test_for_bit(self, records):
        subset = records.for_bit(31)
        assert len(subset) == 4
        assert np.all(subset.bit == 31)

    def test_for_field_and_regime(self, records):
        from repro.posit.fields import PositField

        sign_trials = records.for_field(int(PositField.SIGN))
        assert np.all(sign_trials.bit == 31)
        k1 = records.for_regime_size(1)
        assert np.all(k1.regime_k == 1)

    def test_finite(self, records):
        finite = records.finite()
        assert not np.any(finite.non_finite)

    def test_select_mask(self, records):
        mask = records.abs_err > 0
        subset = records.select(mask)
        assert len(subset) == int(np.sum(mask))


class TestConcat:
    def test_concatenate(self, records):
        merged = TrialRecords.concatenate([records, records])
        assert len(merged) == 2 * len(records)

    def test_concatenate_empty_list(self):
        assert len(TrialRecords.concatenate([])) == 0

    def test_empty(self):
        empty = TrialRecords.empty()
        assert len(empty) == 0
        assert empty.trial.dtype == np.int64

    def test_mismatched_columns_rejected(self, records):
        import dataclasses

        kwargs = {name: getattr(records, name) for name in records.column_names()}
        kwargs["bit"] = kwargs["bit"][:-1]
        with pytest.raises(ValueError):
            TrialRecords(**kwargs)


class TestCsvRoundtrip:
    def test_file_roundtrip_exact(self, records, tmp_path):
        path = tmp_path / "trials.csv"
        records.write_csv(path)
        loaded = TrialRecords.read_csv(path)
        for column in records.column_names():
            lhs = getattr(records, column)
            rhs = getattr(loaded, column)
            assert np.array_equal(lhs, rhs, equal_nan=lhs.dtype.kind == "f"), column

    def test_preserves_nan_and_inf(self, tmp_path):
        records = TrialRecords.empty()
        import dataclasses

        kwargs = {name: getattr(records, name) for name in records.column_names()}
        for name in kwargs:
            if kwargs[name].dtype.kind == "f":
                kwargs[name] = np.array([np.nan, np.inf, -np.inf, 1.5])
            elif kwargs[name].dtype.kind == "b":
                kwargs[name] = np.array([True, False, True, False])
            else:
                kwargs[name] = np.arange(4, dtype=np.int64)
        crafted = TrialRecords(**kwargs)
        path = tmp_path / "special.csv"
        crafted.write_csv(path)
        loaded = TrialRecords.read_csv(path)
        assert np.isnan(loaded.abs_err[0])
        assert loaded.abs_err[1] == np.inf
        assert loaded.abs_err[2] == -np.inf
        assert loaded.abs_err[3] == 1.5

    def test_string_roundtrip(self, records):
        text = records.to_csv_string()
        loaded = TrialRecords.from_csv_string(text)
        assert len(loaded) == len(records)
        assert text.startswith("# schema_version=")

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="schema"):
            TrialRecords.read_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            TrialRecords.read_csv(path)

    def test_float_values_bit_exact(self, records, tmp_path):
        # repr-based serialization must preserve every float64 bit.
        path = tmp_path / "exact.csv"
        records.write_csv(path)
        loaded = TrialRecords.read_csv(path)
        assert np.array_equal(
            records.faulty.view(np.uint64), loaded.faulty.view(np.uint64)
        )


def _sample(records_class, rows, fault_spec=None):
    """Synthetic records of ``rows`` rows, filled per the class's column kinds."""
    values = {
        INT: np.arange(rows, dtype=np.int64),
        FLOAT: np.resize([0.1, np.nan, -np.inf, 1e-300, 2.5], rows),
        BOOL: np.arange(rows) % 2 == 0,
        STR: np.resize(["converged", "sdc"], rows),
    }
    columns = {
        name: values[kind]
        for name, kind in records_class.COLUMNS.items()
        if kind != OPTIONAL
    }
    if fault_spec is not None:
        columns["fault_spec"] = np.full(rows, fault_spec, dtype="<U32")
    return records_class(**columns)


def _assert_same(lhs, rhs):
    assert lhs.column_names() == rhs.column_names()
    for name in lhs.column_names():
        a, b = getattr(lhs, name), getattr(rhs, name)
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


@pytest.mark.parametrize(
    "records_class, line_end",
    [(TrialRecords, "\r\n"), (AppTrialRecords, "\n")],
    ids=["value", "app"],
)
class TestRecordsContract:
    """Every records class shares one codec; only columns and framing differ."""

    def test_kind_table_names_every_field_in_order(self, records_class, line_end):
        assert list(records_class.COLUMNS) == [f.name for f in fields(records_class)]

    def test_csv_round_trip_and_framing(self, records_class, line_end, tmp_path):
        for fault_spec in (None, "adjacent(2)"):
            records = _sample(records_class, 5, fault_spec)
            text = records.to_csv_string()
            assert text.startswith(f"# schema_version=1{line_end}")
            assert text.count(line_end) == 7  # schema line, header, 5 rows
            _assert_same(records_class.from_csv_string(text), records)
            path = tmp_path / "shard.csv"
            records.write_csv(path)
            assert path.read_bytes() == text.encode()
            _assert_same(records_class.read_csv(path), records)

    def test_concatenate_fills_absent_fault_spec(self, records_class, line_end):
        plain = _sample(records_class, 2)
        tagged = _sample(records_class, 3, "adjacent(2)")
        merged = records_class.concatenate([plain, tagged])
        assert len(merged) == 5
        assert merged.fault_spec.tolist() == ["single"] * 2 + ["adjacent(2)"] * 3
        assert records_class.concatenate([plain, plain]).fault_spec is None
        assert len(records_class.concatenate([])) == 0

    def test_select_returns_the_subclass(self, records_class, line_end):
        records = _sample(records_class, 4)
        subset = records.select(records.trial > 1)
        assert type(subset) is records_class
        assert subset.trial.tolist() == [2, 3]

    def test_empty_or_headerless_file_rejected(self, records_class, line_end, tmp_path):
        path = tmp_path / "truncated.csv"
        for text in ("", f"# schema_version=1{line_end}"):
            path.write_text(text, newline="")
            with pytest.raises(ValueError):
                records_class.read_csv(path)
