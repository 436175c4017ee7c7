"""Exhaustive backend-equivalence tests.

For every registered format narrow enough to tabulate, the ``lut``
backend must be *bit-identical* to ``direct`` — over every single one of
the 2**nbits patterns, not a sample.  This is the contract that lets the
campaign engine switch backends freely without perturbing a single
trial.
"""

import numpy as np
import pytest

from repro.formats import (
    LUT_MAX_BITS,
    DirectBackend,
    LUTBackend,
    available_formats,
    get_format,
)
from repro.telemetry import Telemetry, telemetry_scope

#: Parameterized formats exercising the spec grammar beyond the defaults.
EXTRA_SPECS = ["posit16es1", "posit12es1", "binary(6,9)", "fixedposit(16,es=2,r=3)"]


def narrow_formats() -> list[str]:
    names = [n for n in available_formats() if get_format(n).nbits <= LUT_MAX_BITS]
    return names + EXTRA_SPECS


@pytest.fixture(params=narrow_formats())
def backend_pair(request):
    direct = get_format(request.param, backend="direct")
    lut = get_format(request.param, backend="lut")
    patterns = np.arange(1 << direct.nbits, dtype=np.uint64).astype(direct.dtype)
    return direct, lut, patterns


class TestExhaustiveEquivalence:
    def test_from_bits(self, backend_pair):
        direct, lut, patterns = backend_pair
        expected = direct.from_bits(patterns)
        actual = lut.from_bits(patterns)
        assert np.array_equal(expected, actual, equal_nan=True), direct.name

    def test_to_bits_over_all_representable_values(self, backend_pair):
        direct, lut, patterns = backend_pair
        values = direct.from_bits(patterns)
        expected = direct.to_bits(values)
        actual = lut.to_bits(values)
        assert np.array_equal(expected, actual), direct.name

    def test_to_bits_on_arbitrary_floats(self, backend_pair, rng):
        direct, lut, _ = backend_pair
        values = np.concatenate([
            rng.normal(0, 1e3, 20000),
            rng.lognormal(0, 30, 20000),
            -rng.lognormal(0, 30, 20000),
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan]),
        ])
        with np.errstate(over="ignore"):
            assert np.array_equal(direct.to_bits(values), lut.to_bits(values)), direct.name

    def test_classify_bits(self, backend_pair):
        direct, lut, patterns = backend_pair
        for bit in range(direct.nbits):
            expected = direct.classify_bits(patterns, bit)
            actual = lut.classify_bits(patterns, bit)
            assert np.array_equal(expected, actual), f"{direct.name} bit {bit}"
            assert actual.dtype == np.int64

    def test_regime_sizes(self, backend_pair):
        direct, lut, patterns = backend_pair
        assert np.array_equal(direct.regime_sizes(patterns), lut.regime_sizes(patterns)), (
            direct.name
        )

    def test_round_trip(self, backend_pair):
        direct, lut, patterns = backend_pair
        values = direct.from_bits(patterns)
        finite = values[np.isfinite(values)]
        assert np.array_equal(direct.round_trip(finite), lut.round_trip(finite)), direct.name


class TestLUTShapeHandling:
    def test_scalar_and_nd_inputs(self):
        lut = get_format("posit16", backend="lut")
        direct = get_format("posit16", backend="direct")
        value = np.float64(186.25)
        assert int(np.atleast_1d(lut.to_bits(value))[0]) == int(
            np.atleast_1d(direct.to_bits(value))[0]
        )
        grid = np.linspace(-5, 5, 12).reshape(3, 4)
        bits = lut.to_bits(grid)
        assert bits.shape == (3, 4)
        assert lut.from_bits(bits).shape == (3, 4)
        assert lut.classify_bits(bits, 3).shape == (3, 4)


class TestOneEncoder:
    def test_to_bits_has_one_implementation(self):
        for backend in (DirectBackend, LUTBackend):
            assert "to_bits" not in vars(backend), backend.backend_name

    def test_lut_encode_builds_no_table(self, rng):
        collector = Telemetry()
        lut = LUTBackend(get_format("posit16"))
        with telemetry_scope(collector):
            lut.to_bits(rng.lognormal(0, 3, 256))
        assert "formats.lut.tables_built" not in collector.snapshot().counters
