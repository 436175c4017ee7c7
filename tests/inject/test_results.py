"""Tests for trial records and CSV round-trip."""

import csv
import io
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.campaign import AppTrialRecords
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.inject.results import (
    BOOL,
    CSV_SCHEMA_VERSION,
    FLOAT,
    INT,
    OPTIONAL,
    STR,
    TrialRecords,
)


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


def _assert_bit_exact(lhs, rhs):
    assert lhs.column_names() == rhs.column_names()
    for name in lhs.column_names():
        a, b = getattr(lhs, name), getattr(rhs, name)
        assert a.dtype.kind == b.dtype.kind, name
        if a.dtype.kind == "f":
            nan = np.isnan(a)
            assert np.array_equal(nan, np.isnan(b)), name
            assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)), name
        else:
            assert np.array_equal(a, b), name


#: Float64 values the codec must carry bit for bit (NaN only by position).
SPECIAL_FLOATS = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
    1e16, 1e-5,
]

#: Fault-spec cells that csv quoting must wrap, double, or leave alone.
QUOTED_SPECS = ["burst(4,0.5)", 'say "hi"', '",', "", " padded ", "single"]


def _reference_csv(records) -> str:
    """The row-wise ``csv.writer`` formatter the column-wise codec replaced."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=records.LINE_TERMINATOR)
    writer.writerow([f"# schema_version={CSV_SCHEMA_VERSION}"])
    names = records.column_names()
    writer.writerow(names)
    for row in zip(*(getattr(records, name) for name in names)):
        writer.writerow([
            repr(float(v))
            if isinstance(v, (float, np.floating))
            else (str(v) if isinstance(v, (str, np.str_)) else int(v))
            for v in row
        ])
    return buffer.getvalue()


def _from_floats(records_class, floats, specs):
    """Records whose float columns hold ``floats`` (rotated per column)."""
    rows = len(floats)
    columns = {}
    for offset, (name, kind) in enumerate(records_class.COLUMNS.items()):
        if kind == FLOAT:
            columns[name] = np.roll(floats, offset)
        elif kind == INT:
            columns[name] = np.arange(rows, dtype=np.int64) * (-7) ** offset
        elif kind == BOOL:
            columns[name] = (np.arange(rows) + offset) % 3 == 0
        elif kind == STR:
            columns[name] = np.resize(np.array(specs, dtype="<U16"), rows)
        else:
            columns[name] = np.resize(np.array(specs, dtype="<U32"), rows)
    return records_class(**columns)


_bit_patterns = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=24)
_spec_cells = st.lists(
    st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=16),
    min_size=1, max_size=4,
)


@pytest.mark.parametrize(
    "records_class, line_end",
    [(TrialRecords, "\r\n"), (AppTrialRecords, "\n")],
    ids=["value", "app"],
)
class TestRecordsContract:
    """Every records class shares one codec; only columns and framing differ.

    The column-wise codec writes the bytes of the row-wise ``csv.writer``
    loop it replaced and reads every float64 back bit for bit."""

    def test_kind_table_names_every_field_in_order(self, records_class, line_end):
        assert list(records_class.COLUMNS) == [f.name for f in fields(records_class)]

    def test_csv_round_trip_and_framing(self, records_class, line_end, tmp_path):
        for fault_spec in (None, "adjacent(2)"):
            records = _sample(records_class, 5, fault_spec)
            text = records.to_csv_string()
            assert text.startswith(f"# schema_version=1{line_end}")
            assert text.count(line_end) == 7  # schema line, header, 5 rows
            _assert_bit_exact(records_class.from_csv_string(text), records)
            path = tmp_path / "shard.csv"
            records.write_csv(path)
            assert path.read_bytes() == text.encode()
            _assert_bit_exact(records_class.read_csv(path), records)

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

    def test_ragged_rows_rejected(self, records_class, line_end):
        text = _sample(records_class, 5).to_csv_string()
        lines = text.split(line_end)
        lines[2] += ",0"
        for ragged in (text[:-40], line_end.join(lines)):
            with pytest.raises(ValueError, match="columns"):
                records_class.from_csv_string(ragged)
        quoted = _sample(records_class, 5, "burst(4,0.5)").to_csv_string()
        with pytest.raises(ValueError, match="quoted"):
            records_class.from_csv_string(quoted[: -len(line_end) - 3])

    @settings(deadline=None)
    @given(bits=_bit_patterns, specs=_spec_cells)
    @example(bits=[0], specs=QUOTED_SPECS)
    def test_bytes_match_reference_and_round_trip(self, records_class, line_end, bits, specs):
        floats = np.array(bits, dtype=np.uint64).view(np.float64)
        floats = np.concatenate([np.array(SPECIAL_FLOATS), floats])
        for records in (
            _from_floats(records_class, floats, specs),
            _from_floats(records_class, floats, specs).select(slice(0, 0)),
        ):
            for candidate in (records, replace(records, fault_spec=None)):
                text = candidate.to_csv_string()
                assert text == _reference_csv(candidate)
                _assert_bit_exact(records_class.from_csv_string(text), candidate)

    def test_quoted_cells_are_written_as_csv_writer_quotes_them(self, records_class, line_end):
        records = _from_floats(records_class, np.array([1.5] * 6), QUOTED_SPECS)
        lines = records.to_csv_string().split(line_end)
        assert lines[2].endswith(',"burst(4,0.5)"')
        assert lines[3].endswith(',"say ""hi"""')
        assert lines[4].endswith(',""","')
        assert lines[7].endswith(",single")

    @pytest.mark.parametrize("kind", [INT, BOOL])
    def test_fractional_integer_cell_rejected(self, records_class, line_end, kind):
        records = _sample(records_class, 2)
        names = records.column_names()
        column = names.index(next(n for n in names if records_class.COLUMNS[n] == kind))
        lines = records.to_csv_string().split(line_end)
        cells = lines[2].split(",")
        cells[column] = "0.5"
        lines[2] = ",".join(cells)
        with pytest.raises(ValueError):
            records_class.from_csv_string(line_end.join(lines))

    def test_wrong_header_rejected(self, records_class, line_end):
        text = _sample(records_class, 2).to_csv_string().replace("trial,", "trail,", 1)
        with pytest.raises(ValueError, match="schema"):
            records_class.from_csv_string(text)

    def test_either_line_framing_reads(self, records_class, line_end):
        records = _sample(records_class, 3, "burst(4,0.5)")
        text = records.to_csv_string()
        for framing in ("\n", "\r\n"):
            reframed = text.replace("\r\n", "\n").replace("\n", framing)
            _assert_bit_exact(records_class.from_csv_string(reframed), records)

    def test_header_only_file_is_zero_rows_without_warning(self, records_class, line_end):
        text = _sample(records_class, 0).to_csv_string()
        assert text.count(line_end) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = records_class.from_csv_string(text)
        assert len(empty) == 0
        _assert_bit_exact(empty, _sample(records_class, 0))
