"""Interrupt/resume determinism: the tentpole guarantee of the runner.

A campaign killed after k shards and then resumed must produce trial
records bit-identical to an uninterrupted run — for the serial and the
pool backend, in any combination across the interrupt boundary.
"""

import numpy as np
import pytest

from repro.inject.campaign import CampaignConfig, run_campaign
from repro.inject.results import TrialRecords
from repro.runner import (
    RunnerHooks,
    read_event_log,
    resume_campaign,
    run_status,
)
from repro.runner.manifest import RUN_INTERRUPTED, RunManifest
from repro.runner.verify import ShardProblem, load_trusted_shard

from tests.runner.test_runner import assert_records_identical


class KillAfter(RunnerHooks):
    """Simulates an interrupt by raising after k completed shards."""

    def __init__(self, shards: int):
        self.remaining = shards

    def on_shard_finish(self, event) -> None:
        if event.kind != "shard_finish":
            return
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


@pytest.fixture
def config() -> CampaignConfig:
    return CampaignConfig(trials_per_bit=4, seed=77)


@pytest.fixture
def uninterrupted(small_field, config):
    return run_campaign(small_field, "posit32", config)


class TestResumeBitIdentical:
    @pytest.mark.parametrize("first_jobs, second_jobs", [(1, 1), (1, 3), (3, 1), (3, 3)])
    def test_kill_then_resume(
        self, small_field, config, uninterrupted, tmp_path, first_jobs, second_jobs
    ):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                small_field, "posit32", config,
                run_dir=run_dir, jobs=first_jobs, hooks=KillAfter(5),
            )

        status = run_status(run_dir)
        assert status.status == RUN_INTERRUPTED
        assert status.shards_done >= 5  # pool backend may land extra shards
        assert status.pending_bits

        resumed = resume_campaign(run_dir, small_field, jobs=second_jobs)
        assert_records_identical(uninterrupted.records, resumed.records)
        assert resumed.extras["resumed_shards"] == status.shards_done
        assert run_status(run_dir).complete

    def test_double_interrupt_then_resume(self, small_field, config, uninterrupted, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(small_field, "posit32", config,
                         run_dir=run_dir, hooks=KillAfter(3))
        with pytest.raises(KeyboardInterrupt):
            resume_campaign(run_dir, small_field, hooks=KillAfter(4))
        resumed = resume_campaign(run_dir, small_field)
        assert_records_identical(uninterrupted.records, resumed.records)

    def test_resume_via_run_campaign_resume_flag(
        self, small_field, config, uninterrupted, tmp_path
    ):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(small_field, "posit32", config,
                         run_dir=run_dir, hooks=KillAfter(5))
        resumed = run_campaign(small_field, "posit32", config,
                               run_dir=run_dir, resume=True)
        assert_records_identical(uninterrupted.records, resumed.records)

    def test_resume_regenerates_preset_dataset(self, tmp_path):
        from repro.datasets.registry import get as get_preset

        data = get_preset("cesm/cloud").generate(seed=5, size=2048)
        config = CampaignConfig(trials_per_bit=3, seed=5)
        provenance = {"kind": "preset", "field": "cesm/cloud", "size": 2048, "seed": 5}
        uninterrupted = run_campaign(data, "posit32", config)

        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(data, "posit32", config, run_dir=run_dir,
                         dataset=provenance, hooks=KillAfter(4))
        # No data argument: the manifest's provenance regenerates it.
        resumed = resume_campaign(run_dir)
        assert_records_identical(uninterrupted.records, resumed.records)

    def test_resume_without_provenance_needs_data(self, small_field, config, tmp_path):
        from repro.runner import RunnerError

        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(small_field, "posit32", config,
                         run_dir=run_dir, hooks=KillAfter(2))
        with pytest.raises(RunnerError, match="dataset source"):
            resume_campaign(run_dir)


class TestShardIntegrity:
    def _interrupted_run(self, small_field, config, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(small_field, "posit32", config,
                         run_dir=run_dir, hooks=KillAfter(5))
        return run_dir

    def test_corrupt_shard_is_recomputed(
        self, small_field, config, uninterrupted, tmp_path
    ):
        run_dir = self._interrupted_run(small_field, config, tmp_path)
        victim = run_status(run_dir).shards_done - 1
        bit = RunManifest.load(run_dir).completed_bits()[victim]
        RunManifest.shard_path(run_dir, bit).write_text("not,a,trial,log\n")

        resumed = resume_campaign(run_dir, small_field)
        assert_records_identical(uninterrupted.records, resumed.records)

    @pytest.mark.parametrize("damage", ["truncated", "extra-field"])
    def test_ragged_shard_without_checksum_is_a_content_problem(self, tmp_path, damage):
        # Work-stealing adoption may find no recorded checksum; a shard cut
        # mid-row, or one with a stray field, must still be rejected.
        data = np.random.default_rng(3).normal(0, 10, 64)
        run_dir = tmp_path / "run"
        run_campaign(data, "posit16", CampaignConfig(trials_per_bit=5, bits=(3,), seed=1),
                     run_dir=run_dir)
        path = RunManifest.shard_path(run_dir, 3)
        payload = path.read_bytes()
        assert payload.endswith(b"\r\n")
        if damage == "truncated":
            payload = payload[:-40]
        else:
            payload = payload[:-2] + b",0\r\n"
        path.write_bytes(payload)

        problem = load_trusted_shard(path, TrialRecords, checksum=None, trials=5)
        assert isinstance(problem, ShardProblem)
        assert problem.kind == "content"
        assert "does not parse" in problem.message

    def test_missing_shard_file_is_recomputed(
        self, small_field, config, uninterrupted, tmp_path
    ):
        run_dir = self._interrupted_run(small_field, config, tmp_path)
        bit = RunManifest.load(run_dir).completed_bits()[0]
        RunManifest.shard_path(run_dir, bit).unlink()

        status = run_status(run_dir)
        assert bit in status.missing_shard_files
        assert "missing" in status.summary()

        resumed = resume_campaign(run_dir, small_field)
        assert_records_identical(uninterrupted.records, resumed.records)

    def test_interrupt_event_logged_and_resume_appends(
        self, small_field, config, tmp_path
    ):
        run_dir = self._interrupted_run(small_field, config, tmp_path)
        events = read_event_log(RunManifest.event_log_path(run_dir))
        kinds = [event["kind"] for event in events]
        assert kinds[-1] == "run_interrupted"

        resume_campaign(run_dir, small_field)
        kinds = [e["kind"] for e in read_event_log(RunManifest.event_log_path(run_dir))]
        assert kinds.count("run_start") == 2
        assert kinds[-1] == "run_finish"
        assert kinds.count("shard_skipped") >= 5

    def test_completed_shards_never_rerun(self, small_field, config, tmp_path):
        run_dir = self._interrupted_run(small_field, config, tmp_path)
        done_before = {
            bit: RunManifest.shard_path(run_dir, bit).stat().st_mtime_ns
            for bit in RunManifest.load(run_dir).completed_bits()
        }
        resume_campaign(run_dir, small_field)
        for bit, mtime in done_before.items():
            assert RunManifest.shard_path(run_dir, bit).stat().st_mtime_ns == mtime
