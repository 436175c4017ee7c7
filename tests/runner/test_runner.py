"""Tests for the campaign runner: planning, execution, retries, events."""

import numpy as np
import pytest

from repro.inject.campaign import CampaignConfig, run_campaign
from repro.runner import (
    CampaignRunner,
    RunnerError,
    RunnerEvent,
    RunnerHooks,
    read_event_log,
    run_status,
)
from repro.runner.events import EVENT_KINDS, ProgressRenderer, dispatch_event
from repro.runner.manifest import RunManifest


def assert_records_identical(a, b) -> None:
    assert len(a) == len(b)
    for column in a.column_names():
        lhs, rhs = getattr(a, column), getattr(b, column)
        assert np.array_equal(lhs, rhs, equal_nan=lhs.dtype.kind == "f"), column


class RecordingHooks(RunnerHooks):
    """Collects every event for assertions."""

    def __init__(self):
        self.events: list[RunnerEvent] = []
        self.closed = False

    def on_event(self, event: RunnerEvent) -> None:
        self.events.append(event)

    def kinds(self) -> list[str]:
        return [event.kind for event in self.events]

    def close(self) -> None:
        self.closed = True


class TestPlanning:
    def test_plan_covers_all_bits_in_order(self, small_field):
        runner = CampaignRunner(small_field, "posit32", CampaignConfig(trials_per_bit=3))
        plan = runner.plan()
        assert [spec.bit for spec in plan] == list(range(32))
        assert all(spec.trials == 3 for spec in plan)

    def test_plan_respects_bit_subset(self, small_field):
        config = CampaignConfig(trials_per_bit=3, bits=(0, 15, 31))
        runner = CampaignRunner(small_field, "posit32", config)
        assert [spec.bit for spec in runner.plan()] == [0, 15, 31]

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CampaignRunner(np.array([]), "posit32")

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_bad_jobs_rejected(self, small_field, jobs):
        with pytest.raises(ValueError, match="jobs"):
            CampaignRunner(small_field, "posit32", jobs=jobs)

    def test_bool_jobs_rejected(self, small_field):
        with pytest.raises(ValueError):
            CampaignRunner(small_field, "posit32", jobs=True)


class TestUnifiedRunCampaign:
    def test_serial_matches_parallel(self, small_field):
        config = CampaignConfig(trials_per_bit=5, seed=11)
        serial = run_campaign(small_field, "posit32", config)
        parallel = run_campaign(small_field, "posit32", config, jobs=3)
        assert_records_identical(serial.records, parallel.records)
        assert parallel.extras["jobs"] == 3

    def test_result_extras(self, small_field):
        result = run_campaign(small_field, "posit32", CampaignConfig(trials_per_bit=2))
        assert result.extras["resumed_shards"] == 0
        assert result.extras["shard_retries"] == 0
        assert result.extras["run_dir"] is None

    def test_oversized_jobs_capped_with_warning(self, small_field):
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=5)
        serial = run_campaign(small_field, "posit32", config)
        with pytest.warns(RuntimeWarning, match="capping"):
            capped = run_campaign(small_field, "posit32", config, jobs=64)
        assert_records_identical(serial.records, capped.records)
        assert capped.extras["jobs"] == 2


class TestPersistence:
    def test_run_dir_layout(self, small_field, tmp_path):
        run_dir = tmp_path / "run"
        config = CampaignConfig(trials_per_bit=3, seed=9)
        run_campaign(small_field, "posit32", config, run_dir=run_dir)
        manifest = RunManifest.load(run_dir)
        assert manifest.status == "completed"
        assert manifest.completed_bits() == list(range(32))
        assert RunManifest.shard_path(run_dir, 0).is_file()
        assert RunManifest.event_log_path(run_dir).is_file()

    def test_completed_dir_refuses_fresh_run(self, small_field, tmp_path):
        run_dir = tmp_path / "run"
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=9)
        run_campaign(small_field, "posit32", config, run_dir=run_dir)
        with pytest.raises(RunnerError, match="resume"):
            run_campaign(small_field, "posit32", config, run_dir=run_dir)

    def test_different_campaign_rejected(self, small_field, tmp_path):
        run_dir = tmp_path / "run"
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=9)
        run_campaign(small_field, "posit32", config, run_dir=run_dir)
        other = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=10)
        with pytest.raises(RunnerError, match="different campaign"):
            run_campaign(small_field, "posit32", other, run_dir=run_dir, resume=True)

    def test_different_data_rejected(self, small_field, tmp_path):
        run_dir = tmp_path / "run"
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=9)
        run_campaign(small_field, "posit32", config, run_dir=run_dir)
        with pytest.raises(RunnerError, match="fingerprint"):
            run_campaign(small_field + 1, "posit32", config, run_dir=run_dir, resume=True)

    def test_resume_without_run_dir_rejected(self, small_field):
        with pytest.raises(RunnerError, match="run_dir"):
            run_campaign(small_field, "posit32", CampaignConfig(trials_per_bit=2), resume=True)

    def test_run_status(self, small_field, tmp_path):
        run_dir = tmp_path / "run"
        config = CampaignConfig(trials_per_bit=3, bits=(0, 5), seed=9)
        run_campaign(small_field, "posit16", config, run_dir=run_dir)
        status = run_status(run_dir)
        assert status.complete
        assert status.target_spec == "posit16"
        assert status.shards_done == status.shards_total == 2
        assert status.trials_done == 6
        assert "completed" in status.summary()


class TestRetries:
    def test_serial_retry_recovers(self, small_field, monkeypatch):
        config = CampaignConfig(trials_per_bit=4, bits=(0, 1, 2), seed=3)
        expected = run_campaign(small_field, "posit32", config)

        original = CampaignRunner._compute_shard
        failures = {"left": 2}

        def flaky(self, spec):
            if spec.bit == 1 and failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient worker failure")
            return original(self, spec)

        monkeypatch.setattr(CampaignRunner, "_compute_shard", flaky)
        hooks = RecordingHooks()
        result = run_campaign(
            small_field, "posit32", config, hooks=hooks, max_retries=2
        )
        assert_records_identical(expected.records, result.records)
        assert result.extras["shard_retries"] == 2
        assert hooks.kinds().count("shard_retry") == 2

    def test_serial_retries_exhausted(self, small_field, monkeypatch):
        def always_fails(self, spec):
            raise OSError("permanent failure")

        monkeypatch.setattr(CampaignRunner, "_compute_shard", always_fails)
        config = CampaignConfig(trials_per_bit=2, bits=(0,), seed=3)
        with pytest.raises(RunnerError, match="failed after"):
            run_campaign(
                small_field, "posit32", config, max_retries=1
            )

    def test_pool_failure_falls_back_in_process(self, small_field, monkeypatch):
        import repro.inject.parallel as parallel_module

        config = CampaignConfig(trials_per_bit=3, bits=(0, 1, 2, 3), seed=8)
        expected = run_campaign(small_field, "posit32", config)

        def broken_worker(args):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(parallel_module, "_run_shard_timed", broken_worker)
        hooks = RecordingHooks()
        result = run_campaign(
            small_field, "posit32", config, jobs=2, hooks=hooks, max_retries=1
        )
        assert_records_identical(expected.records, result.records)
        assert "shard_fallback" in hooks.kinds()


class TestEvents:
    def test_lifecycle_and_log(self, small_field, tmp_path):
        run_dir = tmp_path / "run"
        config = CampaignConfig(trials_per_bit=3, bits=(0, 1, 2), seed=4)
        hooks = RecordingHooks()
        run_campaign(small_field, "posit32", config, run_dir=run_dir, hooks=hooks)

        kinds = hooks.kinds()
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_finish"
        assert kinds.count("shard_start") == 3
        assert kinds.count("shard_finish") == 3
        assert all(kind in EVENT_KINDS for kind in kinds)

        logged = read_event_log(RunManifest.event_log_path(run_dir))
        assert [entry["kind"] for entry in logged] == kinds
        finish = logged[-1]
        assert finish["shards_done"] == 3
        assert finish["trials_done"] == 9
        assert finish["trials_per_sec"] > 0
        assert "ts" in finish

    def test_progress_counters_monotonic(self, small_field):
        hooks = RecordingHooks()
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1, 2, 3), seed=4)
        run_campaign(small_field, "posit32", config, jobs=2, hooks=hooks)
        done = [e.shards_done for e in hooks.events if e.kind == "shard_finish"]
        assert done == [1, 2, 3, 4]

    def test_user_hooks_not_closed_owned_hooks_closed(self, small_field, tmp_path):
        hooks = RecordingHooks()
        config = CampaignConfig(trials_per_bit=2, bits=(0,), seed=4)
        run_campaign(small_field, "posit32", config, run_dir=tmp_path / "r", hooks=hooks)
        assert not hooks.closed  # caller-owned hooks are the caller's to close
        # The owned event-log handle is closed: appending again reopens cleanly.
        assert read_event_log(RunManifest.event_log_path(tmp_path / "r"))

    def test_dispatch_routes_failure_stages_to_on_shard_error(self):
        seen = []

        class Hook(RunnerHooks):
            def on_shard_error(self, event):
                seen.append(event.kind)

        hook = Hook()
        for kind in ("shard_error", "shard_retry", "shard_fallback"):
            dispatch_event(hook, RunnerEvent(kind=kind))
        assert seen == ["shard_error", "shard_retry", "shard_fallback"]

    def test_event_json_drops_nones(self):
        payload = RunnerEvent(kind="shard_start", bit=3).to_json()
        assert payload["bit"] == 3
        assert "error" not in payload
        assert "eta_seconds" not in payload

    @pytest.mark.parametrize("event", [
        RunnerEvent(kind="shard_start", bit=3),
        RunnerEvent(kind="shard_finish", elapsed=1.5, bit=0, shards_done=1, shards_total=2,
                    trials_per_sec=12.5, trace_id="abc", detail={"duration": 0.25}),
        RunnerEvent(kind="chaos_fault", error="chaos: torn", detail={
            "spec": {"kind": "torn", "at": [1, 2]}, "paths": ["a", "b"], "nested": {"x": {"y": None}}}),
    ])
    def test_event_json_equals_asdict_form(self, event):
        import json
        from dataclasses import asdict

        expected = {key: value for key, value in asdict(event).items()
                    if value is not None and (key != "detail" or value)}
        payload = event.to_json()
        assert isinstance(payload.pop("ts"), float)
        assert json.dumps(payload) == json.dumps(expected)
        payload.get("detail", {})["added"] = 1
        assert "added" not in event.detail

    def test_progress_renderer_writes_lines(self, small_field):
        import io

        stream = io.StringIO()
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=4)
        renderer = ProgressRenderer(stream=stream, min_interval=0.0)
        run_campaign(small_field, "posit32", config, hooks=renderer)
        text = stream.getvalue()
        assert "[campaign]" in text
        assert "2 shard(s)" in text
        assert "done: 4 trials" in text
