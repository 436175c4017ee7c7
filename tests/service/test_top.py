"""Tests for the live fleet view (repro.service.top)."""

import io
import time

import pytest

from repro.runner import request_cancel, run_worker
from repro.runner.leases import write_done_record
from repro.service import RunRegistry, campaign_top, fleet_snapshot, render_top
from tests.service.test_registry import submit_preset


@pytest.fixture
def submitted(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HOME", str(tmp_path / "home"))
    return submit_preset(
        RunRegistry(), "cesm/cloud", "posit16", trials_per_bit=2,
        bits=(0, 1, 2, 3, 4, 5), size=512, trace=True,
    )


@pytest.fixture
def completed(submitted):
    run_worker(submitted.run_dir, worker_id="top-w", poll_interval=0.02)
    return submitted


def _fake_done(run_dir, durations, worker="w"):
    for bit, duration in enumerate(durations):
        write_done_record(
            run_dir, bit, trials=2, duration=duration, attempts=1,
            checksum="x", worker=worker,
        )


class TestFleetSnapshot:
    def test_completed_run(self, completed):
        snapshot = fleet_snapshot(completed.run_dir)
        assert snapshot.status == "completed"
        assert snapshot.terminal
        assert snapshot.shards_done == snapshot.shards_total == 6
        assert snapshot.trials_done == snapshot.trials_total == 12
        assert snapshot.trace_id  # submitted with trace=True
        [worker] = [w for w in snapshot.workers if w["worker"] == "top-w"]
        assert worker["shards_done"] == 6
        assert worker["claims"] == 6
        assert worker["status"] == "completed"

    def test_metrics_series_feed_worker_gauges(self, completed):
        snapshot = fleet_snapshot(completed.run_dir)
        [worker] = [w for w in snapshot.workers if w["worker"] == "top-w"]
        assert worker["rss_bytes"] and worker["rss_bytes"] > 0
        assert worker["last_seen_age"] is not None

    def test_submitted_run_is_not_terminal(self, submitted):
        snapshot = fleet_snapshot(submitted.run_dir)
        assert not snapshot.terminal
        assert snapshot.shards_done == 0
        assert snapshot.workers == ()

    def test_cancelled_flag(self, submitted):
        request_cancel(submitted.run_dir, reason="test")
        assert fleet_snapshot(submitted.run_dir).cancelled

    def test_stalled_when_events_go_quiet(self, submitted):
        snapshot = fleet_snapshot(
            submitted.run_dir, stall_after=30.0, now=time.time() + 300.0
        )
        assert snapshot.stalled
        assert snapshot.stall_seconds > 30.0

    def test_to_json_schema(self, completed):
        payload = fleet_snapshot(completed.run_dir).to_json()
        assert payload["schema"] == "repro.fleet-snapshot/1"
        assert payload["shards_done"] == 6
        assert isinstance(payload["workers"], list)


class TestStragglers:
    def test_slow_shard_flagged(self, submitted):
        _fake_done(submitted.run_dir, [1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
        snapshot = fleet_snapshot(submitted.run_dir)
        [straggler] = snapshot.stragglers
        assert straggler["bit"] == 5
        assert straggler["state"] == "completed"
        assert straggler["duration"] == pytest.approx(5.0)
        assert straggler["median"] == pytest.approx(1.0)

    def test_uniform_fleet_flags_nothing(self, submitted):
        _fake_done(submitted.run_dir, [1.0] * 6)
        assert fleet_snapshot(submitted.run_dir).stragglers == ()

    def test_too_few_samples_flags_nothing(self, submitted):
        _fake_done(submitted.run_dir, [1.0, 9.0])
        assert fleet_snapshot(submitted.run_dir).stragglers == ()


class TestRenderTop:
    def test_frame_contents(self, completed):
        frame = render_top(fleet_snapshot(completed.run_dir))
        assert "status completed" in frame
        assert "top-w" in frame
        assert "WORKER" in frame
        assert "trials 12/12" in frame

    def test_straggler_section(self, submitted):
        _fake_done(submitted.run_dir, [1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
        frame = render_top(fleet_snapshot(submitted.run_dir))
        assert "stragglers" in frame
        assert "bit   5" in frame

    def test_stall_banner(self, submitted):
        snapshot = fleet_snapshot(
            submitted.run_dir, stall_after=30.0, now=time.time() + 300.0
        )
        assert "STALLED" in render_top(snapshot)


class TestCampaignTop:
    def test_completed_run_exits_zero(self, completed):
        out = io.StringIO()
        code = campaign_top(completed.run_dir, iterations=1, stream=out)
        assert code == 0
        assert "status completed" in out.getvalue()

    def test_cancelled_run_exits_three(self, submitted):
        request_cancel(submitted.run_dir, reason="test")
        out = io.StringIO()
        assert campaign_top(submitted.run_dir, iterations=1, stream=out) == 3

    def test_iterations_bound_frames(self, submitted):
        out = io.StringIO()
        code = campaign_top(
            submitted.run_dir, iterations=2, refresh=0.01, stream=out
        )
        assert code == 0
        assert out.getvalue().count("run posit16-0001") == 2
