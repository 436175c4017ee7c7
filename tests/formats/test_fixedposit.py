"""Tests for the fixed-posit format (Gohil et al.)."""

import numpy as np
import pytest

from repro.formats import FixedPositConfig, get_format
from repro.posit.fields import PositField


@pytest.fixture(scope="module")
def fp16():
    return get_format("fixedposit(16,es=2,r=3)")


class TestConfig:
    def test_derived_constants(self):
        config = FixedPositConfig(nbits=16, es=2, r=3)
        assert config.fraction_bits == 10
        assert config.k_min == -4 and config.k_max == 3
        assert config.min_scale == -16 and config.max_scale == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPositConfig(nbits=3)
        with pytest.raises(ValueError):
            FixedPositConfig(nbits=8, es=4, r=3)  # no fraction bits left


class TestCodec:
    @pytest.mark.parametrize("spec", [
        "fixedposit(16,es=2,r=3)",
        "fixedposit(8,es=1,r=2)",
        "fixedposit(12,es=0,r=4)",
    ])
    def test_exhaustive_pattern_round_trip(self, spec):
        target = get_format(spec)
        patterns = np.arange(1 << target.nbits, dtype=np.uint64)
        values = target.decode_raw(patterns)
        assert np.array_equal(target.encode_raw(values).astype(np.uint64), patterns)
        finite = values[np.isfinite(values)]
        assert len(np.unique(finite)) == finite.size  # no redundant encodings

    def test_special_patterns(self, fp16):
        assert float(fp16.from_bits(np.array([0], dtype=np.uint16))[0]) == 0.0
        assert np.isnan(fp16.from_bits(np.array([0x8000], dtype=np.uint16))[0])
        assert int(fp16.to_bits(np.array([np.nan]))[0]) == 0x8000
        assert int(fp16.to_bits(np.array([np.inf]))[0]) == 0x8000
        assert int(fp16.to_bits(np.array([0.0]))[0]) == 0

    def test_value_law(self, fp16):
        # 1.0: k = 0 (biased regime 4), e = 0, f = 0.
        bits = int(fp16.to_bits(np.array([1.0]))[0])
        assert fp16.layout_string(bits) == "0|100|00|0000000000"
        # 186.25 = 1.4550781... * 2^7 -> k = 1, e = 3.
        assert float(fp16.round_trip(np.array([186.25]))[0]) == 186.25

    def test_saturation_never_reaches_zero_or_nar(self, fp16):
        tiny = np.array([1e-300, -1e-300])
        huge = np.array([1e300, -1e300])
        minpos = (1 + 2.0**-10) * 2.0**-16
        maxpos = (2 - 2.0**-10) * 2.0**15
        assert np.array_equal(fp16.round_trip(tiny), [minpos, -minpos])
        assert np.array_equal(fp16.round_trip(huge), [maxpos, -maxpos])

    def test_negation_is_twos_complement(self, fp16):
        pos = int(fp16.to_bits(np.array([1.5]))[0])
        neg = int(fp16.to_bits(np.array([-1.5]))[0])
        assert (pos + neg) & 0xFFFF == 0

    def test_round_trip_idempotent(self, fp16, rng):
        values = rng.normal(0, 100, 2000)
        stored = fp16.round_trip(values)
        assert np.array_equal(fp16.round_trip(stored), stored)


class TestFields:
    def test_static_classification(self, fp16):
        bits = fp16.to_bits(np.array([1.5, -20.0, 1e-4]))
        assert np.all(fp16.classify_bits(bits, 15) == int(PositField.SIGN))
        assert np.all(fp16.classify_bits(bits, 13) == int(PositField.REGIME))
        assert np.all(fp16.classify_bits(bits, 11) == int(PositField.EXPONENT))
        assert np.all(fp16.classify_bits(bits, 5) == int(PositField.FRACTION))

    def test_regime_sizes_constant(self, fp16):
        bits = fp16.to_bits(np.array([1.5, 1e4, 1e-4]))
        assert fp16.regime_sizes(bits).tolist() == [3, 3, 3]

    def test_field_labels(self, fp16):
        assert fp16.field_label(int(PositField.REGIME)) == "REGIME"

    def test_campaign_runs(self, fp16):
        from repro.inject.campaign import CampaignConfig, run_campaign

        data = np.linspace(0.01, 100.0, 512)
        result = run_campaign(data, fp16, CampaignConfig(trials_per_bit=4, seed=7))
        assert result.trial_count == 4 * 16
        assert result.target_name == "fixedposit(16,es=2,r=3)"
