"""Tests for the streamable run feed (repro.service.watch)."""

import io
import json

import pytest

from repro.runner import RunManifest, request_cancel, run_worker
from repro.service import (
    WATCH_CANCELLED,
    WATCH_DONE,
    WATCH_EOF,
    WATCH_IDLE,
    RunRegistry,
    detect_stall,
    format_event,
    throughput_from_events,
    watch_run,
)
from tests.service.test_registry import submit_preset


@pytest.fixture
def submitted(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HOME", str(tmp_path / "home"))
    entry = submit_preset(
        RunRegistry(), "cesm/cloud", "posit16", trials_per_bit=2, bits=(0, 1, 2), size=512
    )
    return entry


class TestFormatEvent:
    def test_renders_core_fields(self):
        line = format_event({
            "kind": "shard_claimed", "elapsed": 1.5, "bit": 7,
            "shards_done": 2, "shards_total": 8,
            "detail": {"worker": "w1"},
        })
        assert "shard_claimed" in line
        assert "bit=7" in line
        assert "2/8 shards" in line
        assert "worker=w1" in line

    def test_renders_error(self):
        line = format_event({"kind": "shard_error", "error": "boom"})
        assert "error=boom" in line


class TestWatchRun:
    def test_single_pass_shows_feed(self, submitted):
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, follow=False, stream=out)
        assert outcome == WATCH_EOF
        assert "run_submitted" in out.getvalue()

    def test_until_done_on_completed_run(self, submitted):
        run_worker(submitted.run_dir, worker_id="w", poll_interval=0.02)
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, until_done=True,
                            poll_interval=0.01, stream=out)
        assert outcome == WATCH_DONE
        text = out.getvalue()
        assert "run_finish" in text
        assert "run completed" in text

    def test_cancelled_run_terminates_feed(self, submitted):
        request_cancel(submitted.run_dir, reason="test")
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, until_done=True,
                            poll_interval=0.01, stream=out)
        assert outcome == WATCH_CANCELLED
        assert "cancelled" in out.getvalue()

    def test_quiet_feed_times_out(self, submitted):
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, until_done=True,
                            timeout=0.1, poll_interval=0.02, stream=out)
        assert outcome == WATCH_IDLE
        assert "giving up" in out.getvalue()

    def test_plain_follow_stops_after_quiet_spell(self, submitted):
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, follow=True, until_done=False,
                            poll_interval=0.01, stream=out)
        assert outcome == WATCH_IDLE

    def test_torn_tail_tolerated(self, submitted):
        # A worker killed mid-append leaves a partial final line; the
        # feed must render the complete lines and not crash.
        log = RunManifest.event_log_path(submitted.run_dir)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "worker_st')
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, follow=False, stream=out)
        assert outcome == WATCH_EOF
        assert "run_submitted" in out.getvalue()

    def test_missing_run_dir_waits_then_times_out(self, tmp_path):
        out = io.StringIO()
        outcome = watch_run(tmp_path / "nothing-here", until_done=True,
                            timeout=0.1, poll_interval=0.02, stream=out)
        assert outcome == WATCH_IDLE


class TestThroughput:
    EVENTS = [
        {"kind": "run_start", "ts": 100.0, "trials_done": 0,
         "trials_total": 60, "shards_done": 0, "shards_total": 6, "jobs": 2},
        {"kind": "shard_finish", "ts": 110.0, "trials_done": 20,
         "trials_total": 60, "shards_done": 2, "shards_total": 6, "jobs": 2},
        {"kind": "shard_finish", "ts": 120.0, "trials_done": 40,
         "trials_total": 60, "shards_done": 4, "shards_total": 6, "jobs": 2},
    ]

    def test_rate_and_eta_from_slope(self):
        summary = throughput_from_events(self.EVENTS)
        assert summary["trials_done"] == 40
        assert summary["trials_per_sec"] == pytest.approx(2.0)
        assert summary["eta_seconds"] == pytest.approx(10.0)
        assert summary["active_workers"] == 2  # jobs fallback

    def test_worker_events_override_jobs(self):
        events = self.EVENTS + [
            {"kind": "worker_start", "ts": 121.0, "detail": {"worker": "a"}},
            {"kind": "worker_start", "ts": 122.0, "detail": {"worker": "b"}},
            {"kind": "worker_exit", "ts": 123.0, "detail": {"worker": "a"}},
        ]
        assert throughput_from_events(events)["active_workers"] == 1

    def test_done_run_has_zero_eta(self):
        events = self.EVENTS + [
            {"kind": "run_finish", "ts": 130.0, "trials_done": 60,
             "trials_total": 60, "shards_done": 6, "shards_total": 6},
        ]
        assert throughput_from_events(events)["eta_seconds"] == 0.0

    def test_empty_stream(self):
        summary = throughput_from_events([])
        assert summary["trials_per_sec"] is None
        assert summary["active_workers"] == 0


class TestDetectStall:
    def test_quiet_run_is_stalled(self):
        events = [{"kind": "shard_finish", "ts": 100.0}]
        stalled, quiet = detect_stall(events, stall_after=30.0, now=200.0)
        assert stalled and quiet == pytest.approx(100.0)

    def test_recent_progress_is_not_stalled(self):
        events = [{"kind": "shard_finish", "ts": 100.0}]
        assert detect_stall(events, stall_after=30.0, now=110.0) == (False, 10.0)

    def test_finished_run_never_stalls(self):
        events = [{"kind": "shard_finish", "ts": 100.0},
                  {"kind": "run_finish", "ts": 101.0}]
        assert detect_stall(events, stall_after=30.0, now=500.0) == (False, 0.0)

    def test_no_progress_events_no_stall(self):
        assert detect_stall([], stall_after=1.0, now=100.0) == (False, 0.0)


class TestWatchObservability:
    def test_feed_includes_throughput_line(self, submitted):
        run_worker(submitted.run_dir, worker_id="w", poll_interval=0.02)
        out = io.StringIO()
        watch_run(submitted.run_dir, until_done=True,
                  poll_interval=0.01, stream=out)
        assert "[watch]" in out.getvalue()
        assert "worker(s)" in out.getvalue()

    def test_json_mode_emits_machine_lines(self, submitted):
        run_worker(submitted.run_dir, worker_id="w", poll_interval=0.02)
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, until_done=True,
                            poll_interval=0.01, stream=out, json_mode=True)
        assert outcome == WATCH_DONE
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        kinds = [line["kind"] for line in lines]
        assert "run_finish" in kinds
        assert "watch_throughput" in kinds
        assert kinds[-1] == "watch_done"
        summary = next(l for l in lines if l["kind"] == "watch_throughput")
        assert summary["trials_done"] == summary["trials_total"] == 6

    def test_stall_warning_fires_once(self, submitted):
        out = io.StringIO()
        outcome = watch_run(submitted.run_dir, until_done=True,
                            timeout=0.3, poll_interval=0.02, stream=out,
                            stall_after=0.05)
        assert outcome == WATCH_IDLE
        assert out.getvalue().count("flatlined") == 1
