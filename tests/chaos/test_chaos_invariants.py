"""The chaos invariant, per fault type.

Every test here asserts the same contract from ``docs/robustness.md``:
a campaign run under an injected infrastructure fault either completes
with records bit-identical to the fault-free run, or fails loudly with
an actionable error — never silently wrong.
"""

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.inject.campaign import run_campaign
from repro.runner import (
    ManifestError,
    quarantine_dir,
    read_event_log,
    resume_campaign,
    verify_run,
)
from repro.runner.manifest import MANIFEST_NAME, RunManifest
from repro.telemetry.report import render_run_report
from tests.runner.test_runner import RecordingHooks, assert_records_identical


def event_kinds(run_dir):
    return [event["kind"] for event in read_event_log(run_dir / "events.jsonl")]


class TestComputeFaults:
    def test_worker_raise_serial_retries_to_identical(
        self, chaos_field, chaos_config, fault_free
    ):
        plan = FaultPlan([FaultSpec("worker-raise", bits=(3,))], seed=1)
        hooks = RecordingHooks()
        result = run_campaign(
            chaos_field, "posit8", chaos_config, chaos=plan, hooks=hooks
        )
        assert_records_identical(result.records, fault_free.records)
        kinds = hooks.kinds()
        assert "shard_error" in kinds
        assert "shard_retry" in kinds

    def test_worker_raise_pool_retries_to_identical(
        self, chaos_field, chaos_config, fault_free
    ):
        plan = FaultPlan([FaultSpec("worker-raise", bits=(3,))], seed=1)
        hooks = RecordingHooks()
        result = run_campaign(
            chaos_field, "posit8", chaos_config, jobs=2, chaos=plan, hooks=hooks
        )
        assert_records_identical(result.records, fault_free.records)
        errors = [e for e in hooks.events if e.kind == "shard_error"]
        assert any(e.bit == 3 and e.attempt == 0 for e in errors)
        assert "shard_retry" in hooks.kinds()

    def test_worker_raise_work_stealing_honours_max_retries(
        self, chaos_field, chaos_config, fault_free, tmp_path
    ):
        # Forked work-stealing children get the run's attempt budget, so
        # whichever process claims bit 3 recovers on its fourth attempt
        # instead of giving up after three and leaving it to be redone.
        run_dir = tmp_path / "stealing"
        plan = FaultPlan([FaultSpec("worker-raise", bits=(3,), max_attempt=2)], seed=1)
        result = run_campaign(
            chaos_field, "posit8", chaos_config, executor="work-stealing",
            jobs=2, run_dir=run_dir, chaos=plan, max_retries=3,
        )
        assert_records_identical(result.records, fault_free.records)
        errors = [
            event
            for event in read_event_log(run_dir / "events.jsonl")
            if event["kind"] == "shard_error" and event["bit"] == 3
        ]
        assert len(errors) == 3

    def test_worker_crash_is_detected_and_requeued(
        self, chaos_field, chaos_config, fault_free, tmp_path
    ):
        run_dir = tmp_path / "crash"
        plan = FaultPlan([FaultSpec("worker-crash", bits=(5,))], seed=2)
        result = run_campaign(
            chaos_field,
            "posit8",
            chaos_config,
            jobs=2,
            run_dir=run_dir,
            chaos=plan,
            telemetry=True,
        )
        assert_records_identical(result.records, fault_free.records)
        assert result.extras["shards_hung"] >= 1
        kinds = event_kinds(run_dir)
        assert "shard_hung" in kinds
        snapshot = result.extras["telemetry"]
        assert snapshot.counters.get("runner.shards_hung", 0) >= 1

    def test_worker_hang_is_killed_via_heartbeat(
        self, chaos_field, chaos_config, fault_free, tmp_path
    ):
        run_dir = tmp_path / "hang"
        plan = FaultPlan([FaultSpec("worker-hang", bits=(4,), hang=30.0)], seed=3)
        result = run_campaign(
            chaos_field,
            "posit8",
            chaos_config,
            jobs=2,
            run_dir=run_dir,
            chaos=plan,
            heartbeat_timeout=0.75,
            telemetry=True,
        )
        assert_records_identical(result.records, fault_free.records)
        hung = [
            event
            for event in read_event_log(run_dir / "events.jsonl")
            if event["kind"] == "shard_hung"
        ]
        assert any(event["bit"] == 4 for event in hung)
        # A hung (not crashed) worker is alive until the runner kills it.
        snapshot = result.extras["telemetry"]
        assert snapshot.counters.get("runner.workers_killed", 0) >= 1
        # The shard was re-executed after the kill: it still finished.
        finishes = [
            event["bit"]
            for event in read_event_log(run_dir / "events.jsonl")
            if event["kind"] == "shard_finish"
        ]
        assert 4 in finishes
        report = render_run_report(run_dir)
        assert "hung-worker kill" in report


class TestArtifactFaults:
    @pytest.mark.parametrize("kind", ["torn-shard", "shard-byte", "shard-bit"])
    def test_shard_corruption_is_caught_and_recomputed(
        self, chaos_field, chaos_config, fault_free, tmp_path, kind
    ):
        run_dir = tmp_path / kind
        plan = FaultPlan([FaultSpec(kind, bits=(2,))], seed=4)
        result = run_campaign(
            chaos_field, "posit8", chaos_config, run_dir=run_dir, chaos=plan
        )
        # The run itself completes correctly: corruption hit the persisted
        # file after the write, not the in-memory records.
        assert_records_identical(result.records, fault_free.records)
        assert "chaos_fault" in event_kinds(run_dir)

        # Loudly wrong on audit: the checksum no longer matches.
        report = verify_run(run_dir)
        assert report.exit_code == 1
        assert any(f.check in ("shard-checksum", "shard-content") for f in report.errors)

        # Resume refuses the corrupt bytes, quarantines them, recomputes.
        resumed = resume_campaign(run_dir, chaos_field)
        assert_records_identical(resumed.records, fault_free.records)
        assert any(quarantine_dir(run_dir).iterdir())
        assert "shard_quarantined" in event_kinds(run_dir)

    def test_corrupt_manifest_fails_loudly_on_resume(
        self, chaos_field, chaos_config, tmp_path
    ):
        run_dir = tmp_path / "manifest"
        run_campaign(chaos_field, "posit8", chaos_config, run_dir=run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        manifest_path.write_text('{"status": "comp')  # torn mid-write
        with pytest.raises(ManifestError) as excinfo:
            resume_campaign(run_dir, chaos_field)
        message = str(excinfo.value)
        assert MANIFEST_NAME in message
        assert "recovery" in message

    def test_quarantine_preserves_the_corrupt_bytes(
        self, chaos_field, chaos_config, tmp_path
    ):
        run_dir = tmp_path / "evidence"
        run_campaign(chaos_field, "posit8", chaos_config, run_dir=run_dir)
        shard = RunManifest.shard_path(run_dir, 2)
        damaged = b"not,a,trial,log\n"
        shard.write_bytes(damaged)
        resume_campaign(run_dir, chaos_field)
        preserved = list(quarantine_dir(run_dir).iterdir())
        assert len(preserved) == 1
        assert preserved[0].read_bytes() == damaged
        # ...and the recomputed shard is clean again.
        assert verify_run(run_dir).exit_code in (0, 2)
