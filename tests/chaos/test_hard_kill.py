"""SIGKILL between shards: the power-loss half of the chaos plan.

A forked child runs a campaign whose fault plan SIGKILLs the process
after a shard persists (optionally corrupting the manifest first).
The invariant: the run dies hard, the event log still shows the
injected fault, and either a resume finishes bit-identically or the
corruption is reported loudly with recovery guidance.
"""

import multiprocessing
import signal

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.runner import (
    ManifestError,
    read_event_log,
    resume_campaign,
    run_status,
    verify_run,
)
from repro.runner.manifest import RunManifest
from tests.runner.test_runner import assert_records_identical


def _chaos_inputs():
    rng = np.random.default_rng(404)
    field = np.abs(rng.normal(loc=10.0, scale=3.0, size=256)).astype(np.float32)
    return field, CampaignConfig(trials_per_bit=3, seed=11)


def _run_doomed_campaign(run_dir, fault_specs):
    """Child target: a serial campaign that the fault plan will SIGKILL."""
    field, config = _chaos_inputs()
    plan = FaultPlan([FaultSpec(**spec) for spec in fault_specs], seed=6)
    run_campaign(field, "posit8", config, run_dir=run_dir, chaos=plan)


def _fork_and_kill(run_dir, fault_specs):
    context = multiprocessing.get_context("fork")
    child = context.Process(target=_run_doomed_campaign, args=(run_dir, fault_specs))
    child.start()
    child.join(timeout=120)
    assert not child.is_alive(), "doomed campaign child never died"
    return child.exitcode


class TestKillRun:
    def test_kill_is_logged_and_resume_completes_identically(
        self, chaos_field, chaos_config, fault_free, tmp_path
    ):
        run_dir = tmp_path / "killed"
        exitcode = _fork_and_kill(run_dir, [{"kind": "kill-run", "bits": (3,)}])
        assert exitcode == -signal.SIGKILL

        # The injection was flushed to the event log before the process died.
        events = read_event_log(run_dir / "events.jsonl")
        chaos_events = [e for e in events if e["kind"] == "chaos_fault"]
        assert any(e["detail"]["kind"] == "kill-run" for e in chaos_events)
        # ...and no run_finish: the run really was cut short.
        assert "run_finish" not in [e["kind"] for e in events]

        # Live progress is the manifest folded with the shards' done
        # records: a SIGKILL skips the checkpoint, so the raw manifest
        # still holds only the start write.
        status = run_status(run_dir)
        assert 0 < status.shards_done < status.shards_total

        resumed = resume_campaign(run_dir, chaos_field)
        assert_records_identical(resumed.records, fault_free.records)
        assert RunManifest.load(run_dir).status == "completed"

    def test_manifest_corrupted_then_killed_fails_loudly(
        self, chaos_field, tmp_path
    ):
        # manifest-truncate guarantees a parse failure (a byte flip might
        # leave valid JSON); pairing it with kill-run in the same shard
        # means no later checkpoint can rewrite a healthy manifest over it.
        run_dir = tmp_path / "torn-manifest"
        exitcode = _fork_and_kill(
            run_dir,
            [
                {"kind": "manifest-truncate", "bits": (3,)},
                {"kind": "kill-run", "bits": (3,)},
            ],
        )
        assert exitcode == -signal.SIGKILL

        with pytest.raises(ManifestError) as excinfo:
            resume_campaign(run_dir, chaos_field)
        message = str(excinfo.value)
        assert "manifest.json" in message
        assert "recovery" in message

        report = verify_run(run_dir)
        assert report.exit_code == 1
        assert any(f.check == "manifest-parse" for f in report.errors)
