"""Columnar trial records and the one shard-file codec.

The paper logs one CSV row per trial for offline analysis; this module is
that log.  Records are columnar NumPy arrays (not per-trial objects) so a
full campaign — hundreds of thousands of trials — stays cheap to build,
merge, filter, and aggregate.

:class:`ColumnarRecords` is the whole shard-file format: length checks,
merging, filtering, and the CSV writer and reader.  Every records class —
:class:`TrialRecords` here and ``repro.apps.campaign.AppTrialRecords`` —
declares only its dataclass fields, a column → kind table, and its
domain filters, so the format lives in this module alone.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import ClassVar

import numpy as np

#: Column order of the CSV schema, version-stamped for forward compat.
CSV_SCHEMA_VERSION = 1

#: Column kinds a records class declares in its ``COLUMNS`` table.
#: ``OPTIONAL`` columns are per-row strings present only when a campaign
#: needs them (``fault_spec`` appears on non-``single`` fault models), so
#: default campaigns write byte-identical CSVs to every earlier schema-1
#: file.  A file carries a prefix of its class's optional columns.
INT, FLOAT, BOOL, STR, OPTIONAL = "int", "float", "bool", "str", "optional"

_DTYPES = {INT: np.int64, FLOAT: np.float64, BOOL: bool, STR: "<U16", OPTIONAL: "<U32"}

#: Parse dtypes: a BOOL cell is read as an integer, then tested non-zero.
_LOAD_DTYPES = {**_DTYPES, BOOL: np.int64}

#: What an absent optional column means when merging with one present.
_OPTIONAL_DEFAULTS = {"fault_spec": "single"}


class ColumnarRecords:
    """Base of every records dataclass: one column array per field.

    A subclass is a ``@dataclass`` whose fields are the columns in CSV
    order, led by ``trial``; optional columns default to ``None``.  It
    declares ``COLUMNS`` (column name → kind) and, if its files are not
    CRLF-framed, ``LINE_TERMINATOR``.  The line end records what files
    on disk already hold; changing it needs a ``CSV_SCHEMA_VERSION`` bump.
    """

    COLUMNS: ClassVar[dict[str, str]]
    LINE_TERMINATOR: ClassVar[str] = "\r\n"

    def __post_init__(self) -> None:
        length = len(self.trial)
        for name in self.column_names():
            array = getattr(self, name)
            if len(array) != length:
                raise ValueError(f"column {name} has {len(array)} rows, expected {length}")

    def __len__(self) -> int:
        return len(self.trial)

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls(**{
            name: np.empty(0, dtype=_DTYPES[kind])
            for name, kind in cls.COLUMNS.items()
            if kind != OPTIONAL
        })

    @classmethod
    def concatenate(cls, parts):
        """Merge shards (e.g. per-bit or per-worker results)."""
        if not parts:
            return cls.empty()
        kwargs = {}
        for column in dataclass_fields(cls):
            arrays = [getattr(part, column.name) for part in parts]
            if cls.COLUMNS[column.name] == OPTIONAL:
                if all(array is None for array in arrays):
                    kwargs[column.name] = None
                    continue
                default = _OPTIONAL_DEFAULTS[column.name]
                arrays = [
                    array
                    if array is not None
                    else np.full(len(part), default, dtype=_DTYPES[OPTIONAL])
                    for array, part in zip(arrays, parts)
                ]
            kwargs[column.name] = np.concatenate(arrays)
        return cls(**kwargs)

    def select(self, mask):
        """Row subset by boolean mask or index array."""
        kwargs = {}
        for column in dataclass_fields(self):
            array = getattr(self, column.name)
            kwargs[column.name] = None if array is None else array[mask]
        return type(self)(**kwargs)

    # -- CSV ------------------------------------------------------------------

    def column_names(self) -> list[str]:
        """The columns present, in CSV order."""
        return [
            column.name
            for column in dataclass_fields(self)
            if getattr(self, column.name) is not None
        ]

    def write_csv(self, path: str | os.PathLike) -> None:
        """Write the paper-style CSV log."""
        with open(Path(path), "w", newline="") as handle:
            handle.write(self.to_csv_string())

    def to_csv_string(self) -> str:
        """The shard file's text, formatted column by column.

        The bytes are those of ``csv.writer`` with ``QUOTE_MINIMAL``:
        floats as ``repr``, ints as ``str``, bools as ``1``/``0``, and a
        string quoted (``"`` doubled) only when it holds the delimiter,
        the quote character, or a character of the line terminator.
        """
        names = self.column_names()
        specials = ',"' + self.LINE_TERMINATOR
        cells = [
            _format_column(self.COLUMNS[name], getattr(self, name), specials)
            for name in names
        ]
        lines = [f"# schema_version={CSV_SCHEMA_VERSION}", ",".join(names)]
        lines.extend(map(",".join, zip(*cells)))
        return self.LINE_TERMINATOR.join(lines) + self.LINE_TERMINATOR

    @classmethod
    def read_csv(cls, path: str | os.PathLike):
        """Read a log written by :meth:`write_csv`."""
        with open(Path(path), newline="") as handle:
            return cls.from_csv_string(handle.read())

    @classmethod
    def from_csv_string(cls, text: str):
        """Parse shard text: an optional schema line, the header, then the
        body in one ``np.loadtxt`` pass.  LF or CRLF framing is accepted;
        a malformed cell, a row whose field count differs from the
        header, or a quoted cell left open (a file cut inside it) raises
        :class:`ValueError`.
        """
        if not text:
            raise ValueError("empty CSV")
        line, _, body = text.partition("\n")
        if line.startswith("# schema_version="):
            line, _, body = body.partition("\n")
        if not line:
            raise ValueError("CSV missing header row")
        header = line.removesuffix("\r").split(",")
        names = [column.name for column in dataclass_fields(cls)]
        required = [name for name in names if cls.COLUMNS[name] != OPTIONAL]
        optional = [name for name in names if cls.COLUMNS[name] == OPTIONAL]
        variants = [required + optional[:count] for count in range(len(optional) + 1)]
        if header not in variants:
            raise ValueError(f"CSV columns {header} do not match schema {required}")
        dtype = np.dtype([(name, _LOAD_DTYPES[cls.COLUMNS[name]]) for name in header])
        if body.count('"') % 2:
            raise ValueError("CSV ends inside a quoted cell")
        if body.strip("\r\n"):
            table = np.loadtxt(
                io.StringIO(body), dtype=dtype, delimiter=",", quotechar='"',
                comments=None, ndmin=1,
            )
        else:
            table = np.empty(0, dtype=dtype)
        kwargs = dict.fromkeys(optional)
        for name in header:
            column = table[name]
            kwargs[name] = column != 0 if cls.COLUMNS[name] == BOOL else column.copy()
        return cls(**kwargs)


def _format_column(kind: str, array, specials: str):
    """One column's cells as ``csv.writer`` writes them."""
    if kind == BOOL:
        array = np.asarray(array, dtype=np.int64)
    values = np.asarray(array).tolist()
    if kind == FLOAT:
        return map(repr, values)
    if kind in (INT, BOOL):
        return map(str, values)
    return [_quote(value, specials) for value in values]


def _quote(cell: str, specials: str) -> str:
    if any(char in cell for char in specials):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@dataclass
class TrialRecords(ColumnarRecords):
    """One campaign's trials, columnar.

    Attributes
    ----------
    trial:
        Trial ordinal within the (bit, campaign) grid.
    bit:
        Flipped bit position (LSB == 0).
    index:
        Index of the faulted element in the dataset.
    original / faulty:
        The element value before and after the flip (as float64; for the
        posit target "before" is the posit-rounded value, per the paper).
    field:
        Field id of the flipped bit in the target's enum.
    regime_k:
        Regime size of the original posit (0 for IEEE targets).
    abs_err / rel_err / range_rel_err / mse:
        Per-trial error metrics (QCAT equivalents).
    faulty_mean / faulty_std / faulty_max / faulty_min:
        Summary statistics of the faulty array (O(1)-updated).
    non_finite:
        Whether the faulty value was NaN/Inf (IEEE) or NaR (posit).
    """

    trial: np.ndarray
    bit: np.ndarray
    index: np.ndarray
    original: np.ndarray
    faulty: np.ndarray
    field: np.ndarray
    regime_k: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    range_rel_err: np.ndarray
    mse: np.ndarray
    faulty_mean: np.ndarray
    faulty_std: np.ndarray
    faulty_max: np.ndarray
    faulty_min: np.ndarray
    non_finite: np.ndarray
    fault_spec: np.ndarray | None = None

    COLUMNS = {
        "trial": INT,
        "bit": INT,
        "index": INT,
        "original": FLOAT,
        "faulty": FLOAT,
        "field": INT,
        "regime_k": INT,
        "abs_err": FLOAT,
        "rel_err": FLOAT,
        "range_rel_err": FLOAT,
        "mse": FLOAT,
        "faulty_mean": FLOAT,
        "faulty_std": FLOAT,
        "faulty_max": FLOAT,
        "faulty_min": FLOAT,
        "non_finite": BOOL,
        "fault_spec": OPTIONAL,
    }

    # The end-to-end benchmark traces these two per records class, so
    # each class binds them in its own namespace.
    to_csv_string = ColumnarRecords.to_csv_string
    read_csv = classmethod(ColumnarRecords.read_csv.__func__)

    # -- filtering ----------------------------------------------------------

    def for_bit(self, bit_index: int) -> "TrialRecords":
        """Trials that flipped one particular bit."""
        return self.select(self.bit == bit_index)

    def for_field(self, field_id: int) -> "TrialRecords":
        """Trials whose flipped bit landed in one field."""
        return self.select(self.field == field_id)

    def for_regime_size(self, k: int) -> "TrialRecords":
        """Trials whose original posit had regime size k."""
        return self.select(self.regime_k == k)

    def finite(self) -> "TrialRecords":
        """Trials whose faulty value stayed finite (non-catastrophic)."""
        return self.select(~self.non_finite)
