"""Fault-model-aware aggregation and protection replay (analysis.faultsweep)."""

import numpy as np
import pytest

from repro.analysis.faultsweep import (
    evaluate_scheme_under_fault,
    fault_frontier,
    frontier_from_run_dir,
    split_by_fault,
    summarize_by_fault,
    aggregate_by_fault,
    sweep_frontier,
    temporal_detection_report,
)
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.inject.results import TrialRecords
from repro.protect.evaluate import evaluate_scheme
from repro.protect.schemes import (
    FullDuplication,
    FullTMR,
    NoProtection,
    SelectiveParity,
    SelectiveTMR,
)

NBITS = 16


@pytest.fixture(scope="module")
def campaigns():
    """One small posit16 campaign per fault model over a fixed field."""
    data = np.random.default_rng(8).normal(20.0, 5.0, 256)
    out = {}
    for fault in ("single", "adjacent(2)", "stuckat(15,1)"):
        config = CampaignConfig(trials_per_bit=8, seed=17, fault=fault)
        out[fault] = run_campaign(data, "posit16", config).records
    return out


class TestSplitAndSummaries:
    def test_records_without_column_are_single(self, campaigns):
        parts = split_by_fault(campaigns["single"])
        assert list(parts) == ["single"]
        assert len(parts["single"]) == len(campaigns["single"])

    def test_mixed_concatenation_splits_per_model(self, campaigns):
        merged = TrialRecords.concatenate(
            [campaigns["adjacent(2)"], campaigns["stuckat(15,1)"]]
        )
        parts = split_by_fault(merged)
        assert sorted(parts) == ["adjacent(2)", "stuckat(15,1)"]
        for fault, part in parts.items():
            assert len(part) == len(campaigns[fault])
            assert set(part.fault_spec) == {fault}

    def test_summaries_cover_each_model(self, campaigns):
        merged = TrialRecords.concatenate(
            [campaigns["adjacent(2)"], campaigns["stuckat(15,1)"]]
        )
        rows = summarize_by_fault(merged)
        assert [row.fault for row in rows] == ["adjacent(2)", "stuckat(15,1)"]
        for row in rows:
            assert row.trial_count == 8 * NBITS
            assert 0.0 <= row.serious_fraction <= 1.0
            assert len(row.as_row()) == 6

    def test_aggregate_by_fault_matches_per_model_curves(self, campaigns):
        from repro.analysis.aggregate import aggregate_by_bit

        merged = TrialRecords.concatenate(
            [campaigns["adjacent(2)"], campaigns["stuckat(15,1)"]]
        )
        curves = aggregate_by_fault(merged, NBITS)
        direct = aggregate_by_bit(campaigns["adjacent(2)"], NBITS)
        np.testing.assert_array_equal(
            curves["adjacent(2)"].mean_rel_err, direct.mean_rel_err
        )


class TestEvaluateUnderFault:
    def test_single_model_reduces_to_legacy_evaluator(self, campaigns):
        records = campaigns["single"]
        for scheme in (
            NoProtection(),
            FullTMR(),
            FullDuplication(),
            SelectiveTMR((15, 14, 13)),
            SelectiveParity((15, 14, 13)),
        ):
            legacy = evaluate_scheme(records, scheme, NBITS)
            replay = evaluate_scheme_under_fault(records, scheme, NBITS, "single")
            assert replay == legacy, scheme.describe()

    def test_tmr_needs_the_whole_support_covered(self, campaigns):
        records = campaigns["adjacent(2)"]
        # Covering bit 14 alone cannot neutralize the adjacent(2) trial
        # anchored there (it also touches 15)...
        partial = evaluate_scheme_under_fault(
            records, SelectiveTMR((14,)), NBITS, "adjacent(2)"
        )
        assert partial.covered_fraction == 0.0
        # ...but covering both positions neutralizes the shards anchored
        # at 14 and at 15 (the latter clips to a single covered bit).
        both = evaluate_scheme_under_fault(
            records, SelectiveTMR((15, 14)), NBITS, "adjacent(2)"
        )
        anchored_in_top_two = float(np.mean(records.bit >= 14))
        assert both.covered_fraction == pytest.approx(anchored_in_top_two)

    def test_parity_is_blind_to_even_flip_counts(self, campaigns):
        records = campaigns["adjacent(2)"]
        parity = evaluate_scheme_under_fault(
            records, SelectiveParity(tuple(range(NBITS))), NBITS, "adjacent(2)"
        )
        duplication = evaluate_scheme_under_fault(
            records, FullDuplication(), NBITS, "adjacent(2)"
        )
        # Full-word parity sees XOR of everything: an interior adjacent
        # pair cancels; only the clipped top-bit shard flips one bit.
        top_only = float(np.mean(records.bit == NBITS - 1))
        assert parity.covered_fraction == pytest.approx(top_only)
        # Duplication compares words, so every flip pattern is visible.
        assert duplication.covered_fraction == 1.0
        assert duplication.residual_serious_fraction == 0.0

    def test_stuckat_support_is_its_own_position(self, campaigns):
        records = campaigns["stuckat(15,1)"]
        covering = evaluate_scheme_under_fault(
            records, SelectiveTMR((15,)), NBITS, "stuckat(15,1)"
        )
        assert covering.covered_fraction == 1.0
        assert covering.residual_serious_fraction == 0.0
        missing = evaluate_scheme_under_fault(
            records, SelectiveTMR((14,)), NBITS, "stuckat(15,1)"
        )
        assert missing.covered_fraction == 0.0

    def test_zero_trials_rejected(self, campaigns):
        empty = campaigns["single"].select(np.zeros(len(campaigns["single"]), bool))
        with pytest.raises(ValueError, match="zero trials"):
            evaluate_scheme_under_fault(empty, NoProtection(), NBITS)


class TestTemporalReport:
    def test_threshold_partitions_trials(self, campaigns):
        records = campaigns["single"]
        report = temporal_detection_report(records, NBITS, theta=8.0)
        assert report.overhead_bits == 0
        assert report.scheme == "temporal[theta=8]"
        assert 0.0 <= report.covered_fraction <= 1.0
        # Every catastrophic (non-finite) trial is always detected.
        assert report.residual_catastrophic_fraction == 0.0

    def test_lower_theta_detects_no_less(self, campaigns):
        records = campaigns["adjacent(2)"]
        loose = temporal_detection_report(records, NBITS, theta=64.0)
        tight = temporal_detection_report(records, NBITS, theta=0.5)
        assert tight.covered_fraction >= loose.covered_fraction


class TestFrontier:
    def test_cell_shape_and_monotone_tmr(self, campaigns):
        cell = fault_frontier(
            campaigns["adjacent(2)"], "posit16", NBITS, "adjacent(2)",
            max_protected=NBITS,
        )
        assert cell.fault == "adjacent(2)"
        assert cell.trial_count == 8 * NBITS
        assert len(cell.tmr) == NBITS + 1
        residuals = [r.residual_serious_fraction for r in cell.tmr]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
        needed = cell.bits_needed_for_reduction(0.95)
        assert 0 < needed <= NBITS + 1

    def test_sweep_splits_mixed_records(self, campaigns):
        merged = TrialRecords.concatenate(
            [campaigns["adjacent(2)"], campaigns["stuckat(15,1)"]]
        )
        cells = sweep_frontier([("posit16", merged)], max_protected=4)
        assert [(c.target, c.fault) for c in cells] == [
            ("posit16", "adjacent(2)"), ("posit16", "stuckat(15,1)"),
        ]

    def test_frontier_from_run_dir(self, tmp_path):
        data = np.random.default_rng(8).normal(20.0, 5.0, 256)
        config = CampaignConfig(
            trials_per_bit=4, bits=(0, 14, 15), seed=17, fault="adjacent(2)"
        )
        run_campaign(data, "posit16", config, run_dir=tmp_path / "run")
        cell = frontier_from_run_dir(tmp_path / "run", max_protected=2)
        assert cell.fault == "adjacent(2)"
        assert cell.target == "posit16"
        assert cell.trial_count == 12

    def test_empty_run_dir_rejected(self, tmp_path):
        from repro.runner.manifest import RunManifest, ShardState

        manifest = RunManifest(
            target_spec="posit16",
            label="empty",
            trials_per_bit=2,
            bits=(0,),
            seed=1,
            data_fingerprint="abc",
            data_size=64,
            shards={0: ShardState(bit=0, trials=2)},
        )
        manifest.write(tmp_path)
        with pytest.raises(ValueError, match="no completed shards"):
            frontier_from_run_dir(tmp_path)

    def test_tampered_shard_rejected_like_verify(self, tmp_path):
        from repro.runner import RunManifest, verify_run

        data = np.random.default_rng(8).normal(20.0, 5.0, 256)
        config = CampaignConfig(trials_per_bit=4, bits=(0, 14, 15), seed=17)
        run_dir = tmp_path / "run"
        run_campaign(data, "posit16", config, run_dir=run_dir)
        # Rewrite one float so the shard still parses but no longer
        # matches the checksum its writer recorded.
        shard = RunManifest.shard_path(run_dir, 14)
        lines = shard.read_bytes().split(b"\r\n")
        cells = lines[2].split(b",")
        cells[3] = repr(float(cells[3]) + 1.0).encode()
        lines[2] = b",".join(cells)
        shard.write_bytes(b"\r\n".join(lines))
        assert len(TrialRecords.read_csv(shard)) == 4
        assert verify_run(run_dir).exit_code == 1
        with pytest.raises(ValueError, match="bit 14 .*checksum"):
            frontier_from_run_dir(run_dir)
