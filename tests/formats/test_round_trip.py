"""Posit ``round_trip`` rounds in the float domain, bit-identically.

Every test compares against :func:`bit_path`, the store-then-load
through the bit patterns (``from_bits(to_bits(x))``), kept here as the
reference.  "Identical" means equal uint64 views of the float64 results,
so signed zeros and NaN positions count.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.formats import (
    LUT_MAX_BITS,
    FixedPositTarget,
    IEEETarget,
    PositTarget,
    get_format,
    resolve,
)
from repro.formats.base import CHUNK, NumberFormat
from repro.telemetry import Telemetry, telemetry_scope

#: Narrow posits checked exhaustively: the standard posit8/posit16 and
#: 8-12-bit variants around es = 2.
EXHAUSTIVE_SPECS = ["posit8", "posit16"] + [
    f"posit{nbits}es{es}" for nbits in range(8, 13) for es in (0, 1, 3, 4)
]

#: Every registered posit plus non-standard es variants of each width class.
PARITY_SPECS = ["posit8", "posit16", "posit32", "posit64", "posit12es0", "posit32es3"]

SPECIAL_INPUTS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308,
]


def bit_path(fmt: NumberFormat, values):
    """The reference: store-then-load through the bit patterns."""
    return fmt.from_bits(fmt.to_bits(values))


def assert_identical(got, expected, context) -> None:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape, context
    mismatch = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert mismatch.size == 0, (
        f"{context}: {mismatch.size} differ, first at flat index {mismatch[:4]}"
    )


def around_edges(edges) -> np.ndarray:
    """``edges``, their float64 neighbours, and their negations."""
    edges = np.asarray(edges, dtype=np.float64)
    with np.errstate(over="ignore"):  # float64's max_finite steps up to inf
        above = np.nextafter(edges, np.inf)
    around = np.concatenate([edges, np.nextafter(edges, 0.0), above])
    return np.concatenate([around, -around])


def range_edges(fmt: PositTarget) -> np.ndarray:
    """minpos/maxpos, their float64 neighbours, and their negations."""
    return around_edges([fmt.config.minpos, fmt.config.maxpos])


class TestExhaustiveNarrow:
    """Every value, midpoint and midpoint neighbour of narrow posits."""

    @pytest.fixture(params=EXHAUSTIVE_SPECS)
    def fmt(self, request):
        return get_format(request.param)

    def test_every_pattern_value(self, fmt):
        patterns = np.arange(1 << fmt.nbits, dtype=np.uint64).astype(fmt.dtype)
        values = fmt.from_bits(patterns)
        assert_identical(fmt.round_trip(values), bit_path(fmt, values), fmt.name)

    def test_midpoints_and_their_neighbours(self, fmt):
        patterns = np.arange(1 << fmt.nbits, dtype=np.uint64).astype(fmt.dtype)
        values = fmt.from_bits(patterns)
        lattice = np.unique(np.abs(values[np.isfinite(values)]))  # 0, minpos .. maxpos
        midpoints = (lattice[:-1] + lattice[1:]) / 2
        around = np.concatenate([
            midpoints,
            np.nextafter(midpoints, 0.0),
            np.nextafter(midpoints, np.inf),
        ])
        inputs = np.concatenate([around, -around])
        assert_identical(fmt.round_trip(inputs), bit_path(fmt, inputs), fmt.name)

    def test_specials_and_range_edges(self, fmt):
        inputs = np.concatenate([np.array(SPECIAL_INPUTS), range_edges(fmt)])
        assert_identical(fmt.round_trip(inputs), bit_path(fmt, inputs), fmt.name)


float64_bit_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64
).map(lambda ints: np.array(ints, dtype=np.uint64).view(np.float64))


class TestWidePosits:
    """posit32/posit64 over any float64 bit pattern."""

    @pytest.mark.parametrize("spec", ["posit32", "posit64"])
    @given(values=float64_bit_arrays)
    def test_any_float64_bit_pattern(self, spec, values):
        fmt = resolve(spec)
        assert_identical(fmt.round_trip(values), bit_path(fmt, values), spec)

    @pytest.mark.parametrize("spec", ["posit32", "posit64", "posit32es3"])
    def test_random_magnitudes_and_specials(self, spec, rng):
        fmt = resolve(spec)
        inputs = np.concatenate([
            rng.standard_normal(20000) * np.exp2(rng.integers(-260, 261, 20000)),
            np.array(SPECIAL_INPUTS),
            range_edges(fmt),
        ])
        assert_identical(fmt.round_trip(inputs), bit_path(fmt, inputs), spec)


def _backends(spec: str) -> list[str]:
    """The decoders a format's results are checked against: its raw codec
    (``direct``) and, for a format of at most 16 bits, an exhaustive table
    of that codec (``lut``)."""
    names = ["direct"]
    if resolve(spec).nbits <= LUT_MAX_BITS:
        names.append("lut")
    return names


def reference_decode(fmt: NumberFormat, backend: str, bits):
    """``fmt``'s raw codec on ``bits``, called whole or gathered from a table."""
    if backend == "direct":
        return fmt.decode_raw(bits)
    patterns = np.arange(1 << fmt.nbits, dtype=np.uint64).astype(fmt.dtype)
    return fmt.decode_raw(patterns)[np.asarray(bits).astype(np.int64)]


PARITY_CASES = [(spec, backend) for spec in PARITY_SPECS for backend in _backends(spec)]

PARITY_INPUTS = {
    "scalar": lambda: 1.3,
    "0-d": lambda: np.array(-2.7),
    "list": lambda: [0.1, -0.0, 3.0],
    "float32": lambda: np.array([0.1, 1e30, -7.5], dtype=np.float32),
    "empty": lambda: np.array([]),
    "2-D": lambda: np.linspace(-3.0, 3.0, 12).reshape(3, 4),
}


class TestOutputParity:
    """Type, shape and dtype stay what the bit path returns."""

    @pytest.mark.parametrize("spec,backend", PARITY_CASES)
    @pytest.mark.parametrize("kind", sorted(PARITY_INPUTS))
    def test_matches_bit_path(self, spec, backend, kind):
        fmt = get_format(spec)
        got = fmt.round_trip(PARITY_INPUTS[kind]())
        expected = bit_path(fmt, PARITY_INPUTS[kind]())
        assert type(got) is type(expected)
        assert np.shape(got) == np.shape(expected)
        assert got.dtype == expected.dtype
        reference = reference_decode(fmt, backend, fmt.to_bits(PARITY_INPUTS[kind]()))
        assert_identical(got, reference, f"{spec}/{backend}/{kind}")

    def test_scalar_result_types_are_pinned(self):
        # Not unified on purpose: a scalar's result type is its codec's,
        # np.float64 from a table gather and a 0-d array from the raw codec.
        assert type(get_format("posit16").round_trip(1.3)) is np.float64
        result = get_format("posit32").round_trip(1.3)
        assert isinstance(result, np.ndarray) and result.ndim == 0


class TestSiteRule:
    """``NumberFormat.round_trip`` stays the one round-trip entry point."""

    def test_posit_target_does_not_override_round_trip(self):
        assert "round_trip" not in vars(PositTarget)

    def test_posit_round_trip_records_its_span(self):
        with telemetry_scope(Telemetry()) as collector:
            resolve("posit32").round_trip(np.linspace(-1.0, 1.0, 100))
        assert collector.snapshot().spans["formats.round_trip"].count == 1


#: One of each format family: standard posits, IEEE layouts (hardware and
#: software), a ``binary(e,f)`` layout and a fixed-posit.
CHUNK_SPECS = [
    "posit8", "posit16", "posit32", "posit64", "ieee16", "ieee32", "ieee64",
    "bfloat16", "binary(6,9)", "fixedposit(16,es=2,r=3)",
]
CHUNK_CASES = [(spec, backend) for spec in CHUNK_SPECS for backend in _backends(spec)]
CHUNK_SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def _edge_values(fmt: NumberFormat) -> np.ndarray:
    """Specials, subnormals, and the format's range ends with their neighbours."""
    if isinstance(fmt, PositTarget):
        return np.concatenate([np.array(SPECIAL_INPUTS), range_edges(fmt)])
    if isinstance(fmt, IEEETarget):
        layout = fmt.format
        ends = [layout.min_subnormal, layout.min_normal, layout.max_finite]
    else:
        assert isinstance(fmt, FixedPositTarget)
        patterns = np.array([fmt._minpos_pattern, fmt._maxpos_pattern], dtype=fmt.dtype)
        ends = fmt.from_bits(patterns)
    return np.concatenate([np.array(SPECIAL_INPUTS), around_edges(ends)])


def _at_chunk_boundaries(base: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``base`` with ``edges`` written on both sides of every chunk boundary."""
    out = base.copy()
    for boundary in [*range(0, out.size, CHUNK), out.size]:
        before = max(boundary - edges.size, 0)
        out[before:boundary] = edges[:boundary - before]
        after = min(boundary + edges.size, out.size)
        out[boundary:after] = edges[:after - boundary]
    return out


class TestChunkedPasses:
    """Field-sized ``to_bits``/``from_bits`` run in ``CHUNK``-value slices
    and still equal one whole-array codec call bit for bit."""

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("spec,backend", CHUNK_CASES)
    def test_matches_whole_array_backend(self, spec, backend, size, rng):
        fmt = get_format(spec)
        magnitudes = rng.standard_normal(size) * np.exp2(rng.integers(-140, 141, size))
        values = _at_chunk_boundaries(magnitudes, _edge_values(fmt))
        bits = fmt.to_bits(values)
        expected_bits = fmt.encode_raw(values)
        assert bits.dtype == expected_bits.dtype
        assert np.array_equal(bits, expected_bits), spec

        random_patterns = rng.integers(0, 1 << fmt.nbits, size, dtype=np.uint64)
        patterns = _at_chunk_boundaries(random_patterns.astype(fmt.dtype), bits[:64])
        assert_identical(
            fmt.from_bits(patterns), reference_decode(fmt, backend, patterns), f"{spec}/{backend}"
        )

    def test_one_span_and_whole_count_per_call(self):
        fmt = resolve("posit32")
        size = 3 * CHUNK + 7
        with telemetry_scope(Telemetry()) as collector:
            bits = fmt.to_bits(np.linspace(-1e3, 1e3, size))
            fmt.from_bits(bits)
        snapshot = collector.snapshot()
        for direction in ("encode", "decode"):
            assert snapshot.spans[f"formats.{direction}"].count == 1
            assert snapshot.counters[f"formats.{direction}.values"] == size
