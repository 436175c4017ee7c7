"""Tests for the campaign engine."""

import numpy as np
import pytest

from repro.inject.campaign import (
    CampaignConfig,
    PAPER_TRIALS_PER_BIT,
    bit_seeds,
    conversion_report,
    run_campaign,
)
from repro.formats import resolve


class TestConfig:
    def test_paper_default(self):
        assert CampaignConfig().trials_per_bit == PAPER_TRIALS_PER_BIT == 313

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials_per_bit=0)

    def test_resolved_bits_default_all(self):
        target = resolve("posit32")
        assert CampaignConfig().resolved_bits(target) == tuple(range(32))

    def test_resolved_bits_subset(self):
        target = resolve("posit32")
        assert CampaignConfig(bits=(31, 5)).resolved_bits(target) == (31, 5)

    def test_resolved_bits_out_of_range(self):
        target = resolve("posit8")
        with pytest.raises(ValueError):
            CampaignConfig(bits=(9,)).resolved_bits(target)


class TestDeterminism:
    def test_same_seed_same_records(self, small_field):
        config = CampaignConfig(trials_per_bit=8, seed=5)
        a = run_campaign(small_field, "posit32", config)
        b = run_campaign(small_field, "posit32", config)
        for column in a.records.column_names():
            lhs = getattr(a.records, column)
            rhs = getattr(b.records, column)
            assert np.array_equal(lhs, rhs, equal_nan=lhs.dtype.kind == "f"), column

    def test_different_seed_differs(self, small_field):
        a = run_campaign(small_field, "posit32", CampaignConfig(trials_per_bit=8, seed=5))
        b = run_campaign(small_field, "posit32", CampaignConfig(trials_per_bit=8, seed=6))
        assert not np.array_equal(a.records.index, b.records.index)

    def test_bit_subset_reproduces_full_campaign_streams(self, small_field):
        full = run_campaign(small_field, "posit32", CampaignConfig(trials_per_bit=8, seed=5))
        subset = run_campaign(
            small_field, "posit32", CampaignConfig(trials_per_bit=8, seed=5, bits=(7, 20))
        )
        for bit in (7, 20):
            full_bit = full.records.for_bit(bit)
            subset_bit = subset.records.for_bit(bit)
            assert np.array_equal(full_bit.index, subset_bit.index)
            assert np.array_equal(full_bit.faulty, subset_bit.faulty, equal_nan=True)


class TestStructure:
    def test_trial_count(self, small_field):
        result = run_campaign(small_field, "ieee32", CampaignConfig(trials_per_bit=5))
        assert result.trial_count == 5 * 32
        assert result.target_name == "ieee32"
        assert result.data_size == small_field.size

    def test_baseline_is_stored_representation(self, small_field):
        result = run_campaign(small_field, "posit32", CampaignConfig(trials_per_bit=2))
        target = resolve("posit32")
        stored = target.round_trip(small_field)
        assert result.baseline.mean == pytest.approx(float(np.mean(stored)))

    def test_every_bit_covered(self, small_field):
        result = run_campaign(small_field, "posit16", CampaignConfig(trials_per_bit=3))
        assert set(result.records.bit.tolist()) == set(range(16))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(np.array([], dtype=np.float32), "posit32")

    def test_label(self, small_field):
        result = run_campaign(small_field, "posit32",
                              CampaignConfig(trials_per_bit=2), label="demo")
        assert result.label == "demo"


class TestConversionReport:
    def test_ieee32_exact_for_float32(self, small_field):
        report = conversion_report(small_field, resolve("ieee32").round_trip(small_field))
        assert report.exact_fraction == 1.0
        assert report.mean_relative_error == 0.0

    def test_posit32_small_error(self, small_field):
        report = conversion_report(small_field, resolve("posit32").round_trip(small_field))
        # The paper quotes ~1e-5 for the double conversion; the direct
        # conversion is far tighter but must be nonzero for generic data.
        assert report.max_relative_error < 1e-4
        assert 0.0 <= report.mean_relative_error < 1e-6

    def test_posit8_coarse(self, small_field):
        report = conversion_report(small_field, resolve("posit8").round_trip(small_field))
        assert report.exact_fraction < 1.0
        assert report.mean_relative_error > 1e-4


class TestBitSeeds:
    def test_one_seed_per_bit(self):
        target = resolve("posit32")
        seeds = bit_seeds(CampaignConfig(seed=1), target)
        assert set(seeds) == set(range(32))

    def test_subset_keeps_bit_alignment(self):
        target = resolve("posit32")
        full = bit_seeds(CampaignConfig(seed=1), target)
        subset = bit_seeds(CampaignConfig(seed=1, bits=(3, 9)), target)
        assert set(subset) == {3, 9}
        for bit in (3, 9):
            assert np.array_equal(
                np.random.default_rng(full[bit]).integers(0, 100, 5),
                np.random.default_rng(subset[bit]).integers(0, 100, 5),
            )
