"""One completion path: done records are the durable record of a shard.

Every executor lands a shard file and then its done record; the
manifest is written only at start, checkpoint, and finish, as a fold of
those records.  These tests pin the write count, the SIGKILL path (no
checkpoint at all), and run directories written before done records
existed, which must still resume and verify.
"""

import multiprocessing
import shutil
import signal

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.runner import (
    RunManifest,
    read_done_records,
    resume_campaign,
    run_status,
    verify_run,
)
from repro.runner.leases import lease_dir
from repro.runner.manifest import (
    RUN_INTERRUPTED,
    SHARD_COMPLETED,
    SHARD_PENDING,
    ShardState,
    fold_done_records,
)

from tests.runner.test_runner import RecordingHooks, assert_records_identical

KILL_AFTER_BIT = 3


def _field() -> np.ndarray:
    rng = np.random.default_rng(404)
    return np.abs(rng.normal(loc=10.0, scale=3.0, size=256)).astype(np.float32)


CONFIG = CampaignConfig(trials_per_bit=3, seed=11)


@pytest.fixture(scope="module")
def reference():
    return run_campaign(_field(), "posit8", CONFIG)


def _killed_child(run_dir) -> None:
    plan = FaultPlan([FaultSpec(kind="kill-run", bits=(KILL_AFTER_BIT,))], seed=6)
    run_campaign(_field(), "posit8", CONFIG, run_dir=run_dir, chaos=plan)


class TestManifestWrites:
    def test_serial_32_shard_run_writes_manifest_at_most_three_times(
        self, small_field, tmp_path, monkeypatch
    ):
        writes = []
        original = RunManifest.write

        def counting_write(self, run_dir):
            writes.append(self.status)
            return original(self, run_dir)

        monkeypatch.setattr(RunManifest, "write", counting_write)
        result = run_campaign(
            small_field, "posit32", CampaignConfig(trials_per_bit=2, seed=5),
            jobs=1, run_dir=tmp_path / "run",
        )
        assert result.extras["executor"] == "serial"
        assert len(writes) <= 3, writes
        assert writes[-1] == "completed"
        assert sorted(read_done_records(tmp_path / "run")) == list(range(32))
        assert verify_run(tmp_path / "run").exit_code == 0


class TestSigkilledRun:
    def test_status_verify_and_resume_follow_the_done_records(
        self, reference, tmp_path
    ):
        run_dir = tmp_path / "killed"
        child = multiprocessing.get_context("fork").Process(
            target=_killed_child, args=(run_dir,)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL

        done = sorted(read_done_records(run_dir))
        assert done == list(range(KILL_AFTER_BIT + 1))
        # The kill skipped the checkpoint: the manifest on disk is the
        # start write, and only the fold shows the progress.
        assert RunManifest.load(run_dir).completed_bits() == []
        status = run_status(run_dir)
        assert 0 < status.shards_done < status.shards_total
        assert status.shards_done == len(done)

        report = verify_run(run_dir)
        assert not report.errors, report.render()
        assert not [f for f in report.findings if f.check == "shard-unexpected"]
        assert report.shards_checked == len(done)

        hooks = RecordingHooks()
        resumed = resume_campaign(run_dir, _field(), hooks=hooks)
        skipped = {e.bit for e in hooks.events if e.kind == "shard_skipped"}
        finished = {e.bit for e in hooks.events if e.kind == "shard_finish"}
        assert skipped == set(done)
        assert finished == set(range(8)) - set(done)
        assert_records_identical(resumed.records, reference.records)
        assert verify_run(run_dir).exit_code == 0


class TestOldStyleRunDirectory:
    def test_manifest_only_completion_resumes_and_verifies_clean(
        self, reference, tmp_path
    ):
        run_dir = tmp_path / "old"
        run_campaign(_field(), "posit8", CONFIG, run_dir=run_dir)
        # Rewrite the directory as the per-shard manifest writer left it:
        # completion only in the manifest, no leases/ at all.
        manifest = RunManifest.load(run_dir)
        shutil.rmtree(lease_dir(run_dir))
        for bit, state in manifest.shards.items():
            state.worker = None
            if bit >= 5:
                state.status = SHARD_PENDING
                state.checksum = None
                RunManifest.shard_path(run_dir, bit).unlink()
        manifest.status = RUN_INTERRUPTED
        manifest.write(run_dir)
        assert run_status(run_dir).shards_done == 5

        hooks = RecordingHooks()
        resumed = resume_campaign(run_dir, _field(), hooks=hooks)
        assert {e.bit for e in hooks.events if e.kind == "shard_skipped"} == set(range(5))
        assert_records_identical(resumed.records, reference.records)
        report = verify_run(run_dir)
        assert report.exit_code == 0, report.render()
        assert RunManifest.load(run_dir).completed_bits() == list(range(8))


class TestFold:
    def _manifest(self):
        return RunManifest(
            target_spec="posit8", label="", trials_per_bit=3, bits=(0, 1, 2),
            seed=1, data_fingerprint="f", data_size=4,
            shards={bit: ShardState(bit=bit, trials=3) for bit in (0, 1, 2)},
        )

    def test_fold_completes_pending_shards_from_records(self):
        manifest = self._manifest()
        folded = fold_done_records(manifest, {
            1: {"bit": 1, "checksum": "c1", "duration": 0.5, "attempts": 2,
                "worker": "w"},
            9: {"bit": 9, "checksum": "c9"},  # not in the plan: ignored
        })
        assert folded.completed_bits() == [1]
        state = folded.shards[1]
        assert (state.checksum, state.duration, state.attempts, state.worker) == (
            "c1", 0.5, 2, "w",
        )
        # Pure: the input manifest is untouched.
        assert manifest.completed_bits() == []

    def test_fold_only_adds_completions(self):
        manifest = self._manifest()
        manifest.shards[0].status = SHARD_COMPLETED
        manifest.shards[0].checksum = "manifest"
        folded = fold_done_records(manifest, {0: {"bit": 0, "checksum": "record"}})
        assert folded.shards[0].checksum == "manifest"
        assert fold_done_records(folded, {}).to_json() == folded.to_json()
