"""Tests for the format registry and backend selection."""

import numpy as np
import pytest

from repro.formats import (
    DEFAULT_FORMATS,
    FormatSpecError,
    available_formats,
    format_known,
    get_format,
    parse_spec,
    register_format,
    resolve,
)
from repro.formats import registry as registry_module


class TestLookup:
    def test_defaults_resolve(self):
        for name in DEFAULT_FORMATS:
            assert get_format(name).name == name

    def test_instances_are_cached(self):
        assert get_format("posit16") is get_format("posit16")
        assert get_format("posit16") is get_format(" Posit16 ")

    def test_spec_aliases_share_instances(self):
        assert get_format("binary(8,23)") is get_format("ieee32")
        assert get_format("posit16es2") is get_format("posit16")

    def test_parameterized_formats_resolve(self):
        assert get_format("posit16es1").nbits == 16
        assert get_format("fixedposit(32,es=2,r=5)").nbits == 32

    def test_format_known(self):
        assert format_known("posit16es1")
        assert not format_known("posit128")
        assert not format_known("nonsense")

    def test_register_custom_name(self):
        register_format("paper-posit", lambda: parse_spec("posit32"))
        try:
            assert get_format("paper-posit").name == "posit32"
            assert "paper-posit" in available_formats()
        finally:
            registry_module._FACTORIES.pop("paper-posit")
            registry_module._INSTANCES.clear()


class TestBackendSelection:
    def test_auto_uses_lut_for_narrow_formats(self):
        assert get_format("posit16").backend_name == "lut"
        assert get_format("posit8").backend_name == "lut"
        assert get_format("bfloat16").backend_name == "lut"

    def test_auto_uses_direct_for_wide_formats(self):
        assert get_format("posit32").backend_name == "direct"
        assert get_format("ieee64").backend_name == "direct"

    def test_explicit_backend_override(self):
        direct = get_format("posit16", backend="direct")
        assert direct.backend_name == "direct"
        assert direct is not get_format("posit16")

    def test_explicit_lut_on_wide_format_rejected(self):
        with pytest.raises(ValueError, match="lut"):
            get_format("posit32", backend="lut")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORMAT_BACKEND", "direct")
        assert parse_spec("posit16").backend_name == "direct"
        monkeypatch.setenv("REPRO_FORMAT_BACKEND", "lut")
        # Quietly degrades for formats too wide to tabulate.
        assert parse_spec("posit32").backend_name == "direct"
        for unknown in ("bogus", "numba"):
            monkeypatch.setenv("REPRO_FORMAT_BACKEND", unknown)
            with pytest.raises(ValueError, match="unknown format backend"):
                parse_spec("posit16")
            monkeypatch.delenv("REPRO_FORMAT_BACKEND")
            with pytest.raises(ValueError, match="unknown format backend"):
                parse_spec("posit16", unknown)


class TestResolveEntryPoint:
    def test_resolve_accepts_specs(self):
        assert resolve("posit16es1").name == "posit16es1"
        assert resolve("binary(8,23)").name == "ieee32"

    def test_resolve_passes_instances_through(self):
        fmt = resolve("posit16")
        assert resolve(fmt) is fmt

    def test_unknown_spec_raises(self):
        with pytest.raises(FormatSpecError):
            resolve("posit128")
        with pytest.raises(FormatSpecError):
            resolve("float128")

    def test_resolve_picks_backend(self):
        assert resolve("posit16", backend="direct").backend_name == "direct"
        assert resolve("posit32", backend="composed").backend_name == "composed"

    def test_spec_parsed_targets_work_end_to_end(self):
        values = np.array([1.5, -200.0, 0.0, 3.0e-4])
        for spec in ["posit16es1", "binary(8,23)", "fixedposit(16,es=2,r=3)"]:
            target = resolve(spec)
            stored = target.round_trip(values)
            assert np.array_equal(target.round_trip(stored), stored)
            bits = target.to_bits(stored)
            assert target.classify_bits(bits, target.nbits - 1).tolist() == [0, 0, 0, 0]


class TestRoundTripCache:
    def test_cached_result_is_isolated(self, rng):
        target = get_format("posit16")
        values = rng.normal(0, 10, 256)
        first = target.round_trip(values)
        first[0] = 12345.0  # caller mutation must not poison the cache
        second = target.round_trip(values)
        assert second[0] != 12345.0
        assert np.array_equal(second, target.from_bits(target.to_bits(values)))
