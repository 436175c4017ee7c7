"""App campaigns through the runner stack: executors, fleets, resume, goldens.

The contract mirrors the value-campaign suite (test_fault_campaigns):
every executor — serial, pool, work-stealing, and standalone subprocess
workers draining a submitted run — must leave **byte-identical** shard
CSVs; interrupt/resume must reproduce the uninterrupted bytes; `campaign
verify` must pass on clean app run dirs and name manifest mismatches.
The golden fixtures pin the outcome counts of small seeded CG/Jacobi
campaigns: any drift in solver, injection, or classification shows up
here, not in the field.
"""

import hashlib
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.apps.campaign import (
    AppCampaignConfig,
    AppCampaignRunner,
    run_app_campaign,
)
from repro.analysis.appsweep import outcome_counts
from repro.runner import RunManifest, resume_campaign, run_status, run_worker, verify_run
from repro.runner.manifest import RUN_COMPLETED
from repro.runner.runner import CampaignRunner

from tests.runner.test_resume import KillAfter
from tests.runner.test_runner import assert_records_identical

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

# sha256 of each shard CSV of the app-campaign-cg.json golden config
# (cg, grid 8, iterations (2, 5), bits (0, 7, 15), 2 trials/cell, seed
# 2023) on posit16, keyed by cell id.
GOLDEN_APP_SHARDS = {
    0: "9dfd0160f1bb0772bff8884e3fe0c5d69673d4072f42091a94187fa59c17e597",
    7: "74fa8c638c40e1c9bd0c0ae047ed7fe83b53fbd30ff66bfb8bad89ee552e72c6",
    15: "e7795743f1db7e35fbcaaa0bd8485bb19572974372e39149fc2032325093a942",
    16: "8118e96e203f5dba024981f2b8e37524de02992b33c0122ad9c49c06a66ce6a1",
    23: "f15a353642c5a1170720c1cff4ace014094a1c0b9e99200ec9af2021af1fe995",
    31: "8d40adebe2f74064ef9faebebfff80d833c3ff1a4e16778a86785a78aef3d1c3",
}


def _config(**overrides):
    kwargs = dict(
        app="cg", grid=8, iterations=(2, 5), trials_per_cell=2,
        bits=(0, 7, 15), seed=2023, fault="adjacent(2)",
    )
    kwargs.update(overrides)
    return AppCampaignConfig(**kwargs)


def _shard_bytes(run_dir):
    manifest = RunManifest.load(run_dir)
    return {
        cell: RunManifest.shard_path(run_dir, cell).read_bytes()
        for cell in sorted(manifest.completed_bits())
    }


def _worker_process(run_dir, **kwargs):
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=run_worker, args=(run_dir,),
        kwargs={"lease_timeout": 30.0, **kwargs}, daemon=True,
    )
    process.start()
    process.join(timeout=300)
    assert process.exitcode == 0


class TestExecutorsAgree:
    """Satellite: serial, pool, and work-stealing are bit-identical."""

    def test_all_executors_match_and_verify(self, tmp_path):
        config = _config()
        shard_bytes = {}
        for name in ("serial", "pool", "work-stealing"):
            run_dir = tmp_path / name
            run_app_campaign(config, "posit16", run_dir=run_dir, jobs=2,
                             executor=name)
            report = verify_run(run_dir)
            assert report.ok, report.render()
            shard_bytes[name] = _shard_bytes(run_dir)
        assert shard_bytes["serial"] == shard_bytes["pool"]
        assert shard_bytes["serial"] == shard_bytes["work-stealing"]

    def test_submitted_run_drained_by_two_subprocess_workers(self, tmp_path):
        config = _config()
        serial_dir = tmp_path / "serial"
        run_app_campaign(config, "posit16", run_dir=serial_dir)

        fleet_dir = tmp_path / "fleet"
        AppCampaignRunner(config, "posit16", run_dir=fleet_dir).submit()
        cells = len(config.cells("posit16"))
        # Sequential for determinism: the first worker computes exactly
        # half the shards, the second takes the rest and finalizes.
        _worker_process(fleet_dir, worker_id="app-w1",
                        max_claims=cells // 2, max_idle_seconds=10.0)
        _worker_process(fleet_dir, worker_id="app-w2", max_idle_seconds=10.0)
        assert RunManifest.load(fleet_dir).status == RUN_COMPLETED
        assert _shard_bytes(fleet_dir) == _shard_bytes(serial_dir)
        report = verify_run(fleet_dir)
        assert report.ok, report.render()


class TestResumeAfterInterrupt:
    """Satellite: kill after k shards, resume, byte-identity holds."""

    @pytest.mark.parametrize("kill_after, resume_jobs", [(2, 1), (3, 2)])
    def test_kill_then_resume_is_byte_identical(
        self, tmp_path, kill_after, resume_jobs
    ):
        config = _config()
        clean_dir = tmp_path / "clean"
        uninterrupted = run_app_campaign(config, "posit16", run_dir=clean_dir)

        run_dir = tmp_path / "interrupted"
        with pytest.raises(KeyboardInterrupt):
            run_app_campaign(config, "posit16", run_dir=run_dir,
                             hooks=KillAfter(kill_after))
        status = run_status(run_dir)
        assert 0 < status.shards_done < status.shards_total
        resumed = resume_campaign(run_dir, jobs=resume_jobs)
        assert_records_identical(uninterrupted.records, resumed.records)
        assert resumed.extras["resumed_shards"] == status.shards_done
        assert _shard_bytes(run_dir) == _shard_bytes(clean_dir)
        report = verify_run(run_dir)
        assert report.ok, report.render()

    def test_resume_regenerates_the_app_dataset(self, tmp_path):
        # No data argument on resume: the manifest's app payload is the
        # complete provenance.
        config = _config(iterations=(2,), bits=(0, 15))
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_app_campaign(config, "posit16", run_dir=run_dir,
                             hooks=KillAfter(1))
        resumed = resume_campaign(run_dir)
        assert resumed.extras["run_dir"] == str(run_dir)
        assert RunManifest.load(run_dir).status == RUN_COMPLETED


class TestManifestAppIdentity:
    def test_app_joins_the_identity(self, tmp_path):
        run_dir = tmp_path / "run"
        run_app_campaign(_config(), "posit16", run_dir=run_dir)
        manifest = RunManifest.load(run_dir)
        assert manifest.app["name"] == "cg"
        assert manifest.identity()["app"] == manifest.app

    def test_app_mismatch_is_named(self, tmp_path):
        cg_dir, jacobi_dir = tmp_path / "cg", tmp_path / "jacobi"
        run_app_campaign(_config(iterations=(2,), bits=(0,)), "posit16",
                         run_dir=cg_dir)
        run_app_campaign(_config(app="jacobi", iterations=(2,), bits=(0,)),
                         "posit16", run_dir=jacobi_dir)
        diffs = RunManifest.load(cg_dir).mismatches(RunManifest.load(jacobi_dir))
        assert any("app" in diff for diff in diffs)

    def test_from_run_dir_dispatches_to_app_runner(self, tmp_path):
        run_dir = tmp_path / "run"
        run_app_campaign(_config(iterations=(2,), bits=(0,)), "posit16",
                         run_dir=run_dir)
        runner = CampaignRunner.from_run_dir(run_dir)
        assert isinstance(runner, AppCampaignRunner)
        assert runner.app_config.app == "cg"

    def test_status_reports_the_app(self, tmp_path):
        run_dir = tmp_path / "run"
        run_app_campaign(_config(iterations=(2,), bits=(0,)), "posit16",
                         run_dir=run_dir)
        status = run_status(run_dir)
        assert status.app == "cg"
        assert status.complete


class TestGoldenOutcomes:
    """Satellite: pinned outcome counts for small seeded campaigns."""

    @pytest.mark.parametrize("app", ["cg", "jacobi"])
    def test_outcome_counts_match_golden(self, app):
        fixture = json.loads(
            (GOLDEN_DIR / f"app-campaign-{app}.json").read_text()
        )
        assert fixture["kind"] == "app-campaign-outcomes"
        params = dict(fixture["config"])
        params["iterations"] = tuple(params["iterations"])
        params["bits"] = tuple(params["bits"])
        config = AppCampaignConfig(app=fixture["app"], **params)
        result = run_app_campaign(config, fixture["target"])
        assert result.trial_count == fixture["trials"]
        assert outcome_counts(result.records) == fixture["outcomes"]


class TestGoldenShardBytes:
    """App shard files are pinned byte for byte, like value shards."""

    @pytest.mark.golden
    def test_shard_csvs_match_golden_checksums(self, tmp_path):
        run_dir = tmp_path / "run"
        run_app_campaign(_config(fault="single"), "posit16", run_dir=run_dir)
        shards = _shard_bytes(run_dir)
        assert sorted(shards) == sorted(GOLDEN_APP_SHARDS)
        for cell, expected in GOLDEN_APP_SHARDS.items():
            assert hashlib.sha256(shards[cell]).hexdigest() == expected, f"cell {cell}"
