"""Fault models through the campaign stack: identity, persistence, resume.

The golden test pins the byte layout of a default (``single``) campaign
run directory: any change to the RNG discipline, CSV schema, or manifest
serialization that shifts those bytes breaks resumability of existing
run dirs and must show up here, not in the field.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.inject.campaign import CampaignConfig, run_campaign
from repro.inject.faultspec import FaultSpecError
from repro.inject.results import TrialRecords
from repro.runner import RunManifest, verify_run
from repro.runner.manifest import MANIFEST_NAME

# sha256 of each shard CSV from the pre-fault-dimension code path, for
# default_rng(42).normal(0, 10, 64) stored in posit16 with
# CampaignConfig(trials_per_bit=7, bits=(0, 3, 14, 15), seed=99).
GOLDEN_SHARDS = {
    0: "6d981b6d0520448eec79ac9da1968761e48ce78b0196f3f8658eb459d117d098",
    3: "1331b38a2b6c42f177de46998027f25048fd37a2c8783c539f775545b4200dac",
    14: "5e42a6fec556c149b6af0ae01daf13bdcfe74aa9b358912e747594c7461fa378",
    15: "ee77db95ff7f3ddb925097bf189997665dd445ebae9229ef7ee618c550145797",
}

# sha256 of each shard CSV of the same campaign under fault="burst(4,0.5)".
# Its fault_spec cells hold a comma, so csv quoting is pinned byte for byte.
GOLDEN_BURST_SHARDS = {
    0: "e98b9c353ead86d10f7262acbbcadfd747cc0f65df9ea998e1f0ee4da50c9737",
    3: "dc2290a46207c67dd92d0963eb2801e26fa7471f1deb2d4f685672933dc905f0",
    14: "b516143bec423e53d4577136138d87bf7865eb87e7b99ad2dc2b52bbfd59d7ca",
    15: "3030ff360daefcf902c52a93e8b6ef55d7edbf08341a2508c2d568c99f384975",
}


def _golden_run(tmp_path, **overrides):
    data = np.random.default_rng(42).normal(0, 10, 64)
    kwargs = dict(trials_per_bit=7, bits=(0, 3, 14, 15), seed=99)
    kwargs.update(overrides)
    config = CampaignConfig(**kwargs)
    run_dir = tmp_path / "run"
    result = run_campaign(data, "posit16", config, label="golden", run_dir=run_dir)
    return result, run_dir


class TestDefaultRunsStayByteIdentical:
    """Satellite: `single` campaigns must match pre-PR run dirs exactly."""

    @pytest.mark.golden
    def test_shard_csvs_match_golden_checksums(self, tmp_path):
        _, run_dir = _golden_run(tmp_path)
        for bit, expected in GOLDEN_SHARDS.items():
            payload = RunManifest.shard_path(run_dir, bit).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == expected, f"bit {bit}"

    @pytest.mark.golden
    def test_quoted_fault_spec_shards_match_golden_checksums(self, tmp_path):
        _, run_dir = _golden_run(tmp_path, fault="burst(4,0.5)")
        for bit, expected in GOLDEN_BURST_SHARDS.items():
            payload = RunManifest.shard_path(run_dir, bit).read_bytes()
            assert b'"burst(4,0.5)"' in payload
            assert hashlib.sha256(payload).hexdigest() == expected, f"bit {bit}"

    def test_manifest_config_has_no_fault_key(self, tmp_path):
        _, run_dir = _golden_run(tmp_path)
        payload = json.loads((run_dir / MANIFEST_NAME).read_text())
        assert payload["config"] == {
            "trials_per_bit": 7, "bits": [0, 3, 14, 15], "seed": 99,
        }

    def test_single_shards_have_no_fault_spec_column(self, tmp_path):
        _, run_dir = _golden_run(tmp_path)
        header = RunManifest.shard_path(run_dir, 0).read_text().splitlines()[0]
        assert "fault_spec" not in header

    def test_non_default_shards_carry_the_spec_column(self, tmp_path):
        _, run_dir = _golden_run(tmp_path, fault="adjacent(2)")
        shard = RunManifest.shard_path(run_dir, 0)
        lines = [
            line for line in shard.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert lines[0].split(",")[-1] == "fault_spec"
        assert lines[1].endswith("adjacent(2)")
        records = TrialRecords.read_csv(shard)
        assert set(records.fault_spec) == {"adjacent(2)"}


class TestManifestFaultIdentity:
    def test_fault_joins_identity_only_when_non_default(self, tmp_path):
        _, single_dir = _golden_run(tmp_path / "a")
        single = RunManifest.load(single_dir)
        assert "fault" not in single.identity()
        _, multi_dir = _golden_run(tmp_path / "b", fault="adjacent(2)")
        multi = RunManifest.load(multi_dir)
        assert multi.identity()["fault"] == "adjacent(2)"

    def test_mismatch_is_named(self, tmp_path):
        _, single_dir = _golden_run(tmp_path / "a")
        _, multi_dir = _golden_run(tmp_path / "b", fault="stuckat(3,1)")
        diffs = RunManifest.load(multi_dir).mismatches(RunManifest.load(single_dir))
        assert len(diffs) == 1
        assert "fault" in diffs[0]
        assert "stuckat(3,1)" in diffs[0]

    def test_manifest_round_trips_fault(self, tmp_path):
        _, run_dir = _golden_run(tmp_path, fault="burst(3, 0.5)")
        manifest = RunManifest.load(run_dir)
        assert manifest.fault == "burst(3,0.5)"  # canonical form on disk
        clone = RunManifest.from_json(manifest.to_json())
        assert clone.fault == "burst(3,0.5)"

    def test_invalid_fault_rejected_at_config_time(self):
        with pytest.raises(FaultSpecError, match="adjacent"):
            CampaignConfig(trials_per_bit=2, fault="adjacent(1)")


class TestExecutorsAgreeUnderFaults:
    @pytest.mark.parametrize("fault", ["adjacent(2)", "random(2)", "stuckat(3,1)"])
    def test_serial_pool_and_work_stealing_match(self, small_field, tmp_path, fault):
        config = CampaignConfig(
            trials_per_bit=4, bits=(0, 3, 14, 15), seed=5, fault=fault
        )
        checksums = {}
        for name in ("serial", "pool", "work-stealing"):
            run_dir = tmp_path / name.replace("(", "-")
            run_campaign(small_field, "posit16", config, jobs=2,
                         run_dir=run_dir, executor=name)
            report = verify_run(run_dir)
            assert report.ok, report.render()
            checksums[name] = [
                RunManifest.shard_path(run_dir, bit).read_bytes()
                for bit in config.bits
            ]
        assert checksums["serial"] == checksums["pool"]
        assert checksums["serial"] == checksums["work-stealing"]


class TestVerifyIsFaultAware:
    def test_clean_non_default_run_verifies(self, tmp_path):
        _, run_dir = _golden_run(tmp_path, fault="adjacent(2)")
        report = verify_run(run_dir)
        assert report.ok, report.render()

    def test_model_mismatch_is_an_error(self, tmp_path):
        _, run_dir = _golden_run(tmp_path, fault="adjacent(2)")
        manifest = RunManifest.load(run_dir)
        manifest.fault = "stuckat(3,1)"
        manifest.write(run_dir)
        report = verify_run(run_dir)
        assert not report.ok
        assert any(f.check == "shard-fault" for f in report.findings)

    def test_missing_column_against_non_default_manifest_is_an_error(
        self, tmp_path
    ):
        _, run_dir = _golden_run(tmp_path)  # single: no fault_spec column
        manifest = RunManifest.load(run_dir)
        manifest.fault = "adjacent(2)"
        manifest.write(run_dir)
        report = verify_run(run_dir)
        assert not report.ok
        assert any(
            f.check == "shard-fault" and "no fault_spec column" in f.message
            for f in report.findings
        )


class TestResumeGuard:
    def test_resume_keeps_the_recorded_fault(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=3, bits=(0, 1), seed=9,
                                fault="adjacent(2)")
        run_dir = tmp_path / "run"
        run_campaign(small_field, "posit16", config, run_dir=run_dir)
        # Resuming with the same config is a no-op completion.
        result = run_campaign(small_field, "posit16", config, run_dir=run_dir,
                              resume=True)
        assert result.extras["resumed_shards"] == 2
        assert set(result.records.fault_spec) == {"adjacent(2)"}

    def test_resume_with_different_fault_is_an_identity_mismatch(
        self, small_field, tmp_path
    ):
        run_dir = tmp_path / "run"
        run_campaign(
            small_field, "posit16",
            CampaignConfig(trials_per_bit=3, bits=(0, 1), seed=9, fault="adjacent(2)"),
            run_dir=run_dir,
        )
        with pytest.raises(Exception, match="fault"):
            run_campaign(
                small_field, "posit16",
                CampaignConfig(trials_per_bit=3, bits=(0, 1), seed=9),
                run_dir=run_dir, resume=True,
            )
