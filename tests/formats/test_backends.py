"""Exhaustive table-equivalence tests.

A format of at most 16 bits that hardware does not convert decodes by
table gathers; every gather must be *bit-identical* to the format's raw
codec (``decode_raw``/``classify_raw``/``regime_raw``) over every one of
the 2**nbits patterns, not a sample.  This is the contract that lets a
table stand in for the codec without perturbing a single trial.  The
hardware layouts among the narrow formats (ieee16, bfloat16) decode raw,
so for them the same tests pin the public entry points to the codec.
"""

import numpy as np
import pytest

from repro.conformance.references import reference_for
from repro.formats import (
    LUT_MAX_BITS,
    FixedPositTarget,
    IEEETarget,
    PositTarget,
    available_formats,
    get_format,
    parse_spec,
)
from repro.telemetry import Telemetry, telemetry_scope

#: Parameterized formats exercising the spec grammar beyond the defaults.
EXTRA_SPECS = ["posit16es1", "posit12es1", "binary(6,9)", "fixedposit(16,es=2,r=3)"]


def narrow_formats() -> list[str]:
    names = [n for n in available_formats() if get_format(n).nbits <= LUT_MAX_BITS]
    return names + EXTRA_SPECS


@pytest.fixture(params=narrow_formats())
def narrow(request):
    fmt = get_format(request.param)
    patterns = np.arange(1 << fmt.nbits, dtype=np.uint64).astype(fmt.dtype)
    return fmt, patterns


def _same_values(got, expected) -> bool:
    """Equal float64 bits, except that any NaN matches any NaN."""
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    nan = np.isnan(expected)
    return bool(
        np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))
    )


class TestExhaustiveEquivalence:
    def test_from_bits(self, narrow):
        fmt, patterns = narrow
        expected = fmt.decode_raw(patterns)
        actual = fmt.from_bits(patterns)
        assert np.array_equal(expected.view(np.uint64), actual.view(np.uint64)), fmt.name

    def test_to_bits_over_all_representable_values(self, narrow):
        # Every value the format decodes to encodes to a pattern of that value.
        fmt, patterns = narrow
        values = fmt.decode_raw(patterns)
        assert _same_values(fmt.from_bits(fmt.to_bits(values)), values), fmt.name

    def test_to_bits_on_arbitrary_floats(self, narrow, rng):
        # Encoding is a projection onto the format's patterns; where the
        # format has an independent scalar reference codec (custom
        # binary(e,f) layouts and fixed-posits have none), it agrees too.
        fmt, _ = narrow
        values = np.concatenate([
            rng.normal(0, 1e3, 400),
            rng.lognormal(0, 30, 400),
            -rng.lognormal(0, 30, 400),
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan]),
        ])
        with np.errstate(over="ignore"):
            bits = fmt.to_bits(values)
        assert np.array_equal(fmt.to_bits(fmt.from_bits(bits)), bits), fmt.name
        reference = reference_for(fmt)
        if reference is not None:
            expected = [reference.encode(value) for value in values.tolist()]
            assert bits.tolist() == expected, fmt.name

    def test_classify_bits(self, narrow):
        fmt, patterns = narrow
        for bit in range(fmt.nbits):
            expected = fmt.classify_raw(patterns, bit)
            actual = fmt.classify_bits(patterns, bit)
            assert np.array_equal(expected, actual), f"{fmt.name} bit {bit}"
            assert actual.dtype == np.int64

    def test_regime_sizes(self, narrow):
        fmt, patterns = narrow
        assert np.array_equal(fmt.regime_raw(patterns), fmt.regime_sizes(patterns)), fmt.name

    def test_round_trip(self, narrow):
        fmt, patterns = narrow
        values = fmt.from_bits(patterns)
        finite = values[np.isfinite(values)]
        raw = fmt.decode_raw(fmt.encode_raw(finite))
        assert np.array_equal(fmt.round_trip(finite), raw), fmt.name


class TestLUTShapeHandling:
    def test_scalar_and_nd_inputs(self):
        lut = get_format("posit16")
        assert lut.backend_name == "lut"
        value = np.float64(186.25)
        assert int(np.atleast_1d(lut.to_bits(value))[0]) == int(
            np.atleast_1d(lut.encode_raw(value))[0]
        )
        grid = np.linspace(-5, 5, 12).reshape(3, 4)
        bits = lut.to_bits(grid)
        assert bits.shape == (3, 4)
        assert lut.from_bits(bits).shape == (3, 4)
        assert lut.classify_bits(bits, 3).shape == (3, 4)
        assert lut.regime_sizes(bits).shape == (3, 4)


class TestOneEncoder:
    def test_to_bits_has_one_implementation(self):
        for cls in (PositTarget, IEEETarget, FixedPositTarget):
            assert "to_bits" not in vars(cls), cls.__name__

    def test_lut_encode_builds_no_table(self, rng):
        collector = Telemetry()
        lut = parse_spec("posit16")
        with telemetry_scope(collector):
            lut.to_bits(rng.lognormal(0, 3, 256))
        assert "formats.lut.tables_built" not in collector.snapshot().counters
        with telemetry_scope(collector):
            lut.from_bits(np.arange(8, dtype=np.uint16))
        assert collector.snapshot().counters["formats.lut.tables_built.values"] == 1
