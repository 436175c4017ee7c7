"""Tests for telemetry exporters and the markdown run report."""

import numpy as np
import pytest

from repro.formats import resolve
from repro.inject import CampaignConfig, run_campaign
from repro.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    format_duration,
    load_run_snapshot,
    load_snapshot,
    render_prometheus,
    render_run_report,
    telemetry_path,
    write_run_report,
    write_snapshot,
)


@pytest.fixture
def snapshot():
    t = Telemetry()
    t.count("inject.trials", 64)
    with t.span("inject.shard"):
        with t.span("formats.decode"):
            pass
    return t.snapshot()


class TestJsonExport:
    def test_write_load_round_trip(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "telemetry.json")
        restored = load_snapshot(path)
        assert restored.counters == snapshot.counters
        assert set(restored.spans) == {"inject.shard", "formats.decode"}

    def test_write_creates_parent_dirs(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "deep" / "nest" / "t.json")
        assert path.is_file()

    def test_no_tmp_file_left_behind(self, tmp_path, snapshot):
        write_snapshot(snapshot, tmp_path / "telemetry.json")
        assert [p.name for p in tmp_path.iterdir()] == ["telemetry.json"]

    def test_load_run_snapshot_absent(self, tmp_path):
        assert load_run_snapshot(tmp_path) is None

    def test_telemetry_path(self, tmp_path):
        assert telemetry_path(tmp_path).name == "telemetry.json"


class TestPrometheus:
    def test_counters_and_spans_rendered(self, snapshot):
        text = render_prometheus(snapshot)
        assert 'repro_counter_total{name="inject.trials"} 64' in text
        assert 'repro_span_count{name="inject.shard"} 1' in text
        assert 'repro_span_seconds_total{name="formats.decode"}' in text
        assert 'repro_span_self_seconds_total{name="inject.shard"}' in text
        assert "# TYPE repro_counter_total counter" in text

    def test_custom_prefix_and_labels(self, snapshot):
        text = render_prometheus(snapshot, prefix="posit", labels={"run": "r1"})
        assert 'posit_counter_total{name="inject.trials",run="r1"} 64' in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(TelemetrySnapshot()) == ""


@pytest.fixture(scope="module")
def profiled_run(tmp_path_factory):
    """A real small profiled campaign run directory."""
    run_dir = tmp_path_factory.mktemp("runs") / "profiled"
    rng = np.random.default_rng(7)
    data = rng.normal(size=256)
    result = run_campaign(
        data,
        "posit16",
        CampaignConfig(trials_per_bit=4, bits=(0, 3, 9), seed=11),
        run_dir=run_dir,
        telemetry=True,
    )
    return run_dir, result


class TestRunReport:
    def test_profiled_run_writes_telemetry_json(self, profiled_run):
        run_dir, result = profiled_run
        assert telemetry_path(run_dir).is_file()
        assert "telemetry" in result.extras
        snapshot = load_run_snapshot(run_dir)
        assert snapshot.counters["inject.trials"] == 12
        assert snapshot.spans["inject.shard"].count == 3

    def test_report_sections(self, profiled_run):
        run_dir, _ = profiled_run
        report = render_run_report(run_dir)
        assert "# Campaign run report" in report
        assert "## Where the time went" in report
        assert "## Spans" in report
        assert "## Counters" in report
        assert "## Reconciliation" in report
        assert "## Shards" in report
        assert "`inject.shard`" in report
        assert "posit16" in report

    def test_reconciliation_agrees(self, profiled_run):
        run_dir, _ = profiled_run
        snapshot = load_run_snapshot(run_dir)
        from repro.runner import RunManifest, read_event_log

        events = read_event_log(RunManifest.event_log_path(run_dir))
        event_total = sum(
            e["detail"]["duration"]
            for e in events
            if e.get("kind") == "shard_finish" and "duration" in e.get("detail", {})
        )
        span_total = snapshot.spans["inject.shard"].total_seconds
        # the two independent clocks measure the same work
        assert event_total > 0
        assert span_total == pytest.approx(event_total, rel=0.25)

    def test_write_run_report_default_path(self, profiled_run):
        run_dir, _ = profiled_run
        path = write_run_report(run_dir)
        assert path == run_dir / "report.md"
        assert "## Where the time went" in path.read_text()

    def test_unprofiled_run_degrades_gracefully(self, tmp_path):
        run_dir = tmp_path / "plain"
        run_campaign(
            np.linspace(0.5, 2.0, 64),
            "posit16",
            CampaignConfig(trials_per_bit=2, bits=(1, 5), seed=3),
            run_dir=run_dir,
            telemetry=False,
        )
        report = render_run_report(run_dir)
        assert "No `telemetry.json`" in report
        assert "## Shards" in report
        assert "## Spans" not in report


class TestCounterParity:
    def test_jobs_1_vs_4_counters_identical(self, tmp_path):
        """The acceptance criterion: scheduling must not change counters."""
        rng = np.random.default_rng(21)
        data = rng.normal(size=128)
        config = CampaignConfig(trials_per_bit=3, bits=(0, 2, 7, 14), seed=5)
        target = resolve("posit32")

        def run(jobs):
            collector = Telemetry()
            run_campaign(data, target, config, jobs=jobs, telemetry=collector)
            return collector.snapshot()

        # Asserted cold: a posit32 campaign builds no tables, so a first
        # run in the process counts exactly what a later one does.
        serial = run(1)
        parallel = run(4)
        assert serial.counters == parallel.counters
        assert serial.counters["inject.trials"] == 12
        assert serial.counters["inject.shards"] == 4
        assert {k: v.count for k, v in serial.spans.items()} == {
            k: v.count for k, v in parallel.spans.items()
        }


class TestHumanize:
    @pytest.mark.parametrize("seconds,expected", [
        (8640.0, "2h 24m"),
        (309.0, "5m 09s"),
        (45.2, "45.2s"),
        (0.25, "250ms"),
        (0.000002, "2us"),
        (93600.0, "1d 2h"),
    ])
    def test_format_duration(self, seconds, expected):
        assert format_duration(seconds) == expected
