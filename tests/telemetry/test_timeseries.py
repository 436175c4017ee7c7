"""Unit tests for the run-dir time-series layer (sampler + aggregation)."""

from repro.telemetry.timeseries import (
    METRICS_SCHEMA,
    MetricsSampler,
    MetricsWriter,
    aggregate_metrics,
    latest_points,
    metrics_path,
    process_rss_bytes,
    read_metrics,
    render_metrics_prometheus,
)


class TestWriter:
    def test_points_stamped_and_readable(self, tmp_path):
        writer = MetricsWriter(tmp_path, "w1")
        record = writer.append({"trials_done": 5, "skipped": None})
        writer.close()
        assert record["schema"] == METRICS_SCHEMA
        assert record["worker"] == "w1"
        assert "ts" in record
        assert "skipped" not in record
        series = read_metrics(tmp_path)
        assert list(series) == ["w1"]
        assert series["w1"][0]["trials_done"] == 5

    def test_worker_slug_is_filesystem_safe(self, tmp_path):
        writer = MetricsWriter(tmp_path, "host.example/worker 1")
        writer.close()
        assert writer.path.parent == tmp_path / "metrics"
        assert "/" not in writer.path.name.replace(".jsonl", "")


class TestSampler:
    def test_start_and_stop_both_sample(self, tmp_path):
        sampler = MetricsSampler(
            MetricsWriter(tmp_path, "w"), lambda: {"trials_done": 1},
            interval=60.0,
        )
        sampler.start()
        sampler.stop()
        points = read_metrics(tmp_path)["w"]
        assert len(points) == 2  # immediate sample + final sample

    def test_derives_trials_per_sec(self, tmp_path):
        ticks = iter([{"trials_done": 0, "ts": 100.0},
                      {"trials_done": 50, "ts": 110.0}])
        sampler = MetricsSampler(MetricsWriter(tmp_path, "w"), lambda: next(ticks))
        sampler._take()
        sampler._take()
        first, second = read_metrics(tmp_path)["w"]
        assert first["trials_per_sec"] == 0.0
        assert second["trials_per_sec"] == 5.0
        assert first["rss_bytes"] > 0

    def test_none_skips_and_exceptions_swallowed(self, tmp_path):
        responses = iter([None, RuntimeError("boom"), {"trials_done": 1}])

        def sample():
            value = next(responses)
            if isinstance(value, Exception):
                raise value
            return value

        sampler = MetricsSampler(MetricsWriter(tmp_path, "w"), sample)
        for _ in range(3):
            sampler._take()
        sampler.writer.close()
        assert len(read_metrics(tmp_path)["w"]) == 1


class TestReaders:
    def test_read_skips_torn_lines(self, tmp_path):
        writer = MetricsWriter(tmp_path, "w")
        writer.append({"trials_done": 1, "ts": 1.0})
        writer.close()
        with metrics_path(tmp_path, "w").open("a") as handle:
            handle.write('{"ts": 2.0, "trials_done"')
        assert len(read_metrics(tmp_path)["w"]) == 1

    def test_latest_points(self, tmp_path):
        writer = MetricsWriter(tmp_path, "w")
        writer.append({"trials_done": 1, "ts": 1.0})
        writer.append({"trials_done": 9, "ts": 2.0})
        writer.close()
        assert latest_points(read_metrics(tmp_path))["w"]["trials_done"] == 9

    def test_rss_positive(self):
        assert process_rss_bytes() > 0


class TestAggregation:
    SERIES = {
        "w1": [
            {"ts": 1.0, "trials_done": 10, "trials_per_sec": 2.0,
             "rss_bytes": 100, "leases_active": 1},
            {"ts": 2.0, "trials_done": 20, "trials_per_sec": 4.0,
             "rss_bytes": 100, "leases_active": 1},
        ],
        "w2": [
            {"ts": 1.5, "trials_done": 5, "trials_per_sec": 1.0,
             "rss_bytes": 50, "leases_active": 0},
        ],
    }

    def test_rates_sum_across_workers(self):
        [point] = aggregate_metrics(self.SERIES, bucket_seconds=5.0)
        assert point["workers"] == 2
        # w1 contributes its in-bucket mean (3.0), w2 its only point (1.0).
        assert point["trials_per_sec"] == 4.0
        assert point["rss_bytes"] == 150
        assert point["trials_done"] == 25.0  # max per worker, summed

    def test_buckets_split_on_grid(self):
        series = {"w": [{"ts": 0.5, "trials_done": 1},
                        {"ts": 7.5, "trials_done": 2}]}
        points = aggregate_metrics(series, bucket_seconds=5.0)
        assert [p["ts"] for p in points] == [0.0, 5.0]

    def test_empty_series(self):
        assert aggregate_metrics({}) == []


class TestPrometheus:
    def test_rendered_gauges(self):
        text = render_metrics_prometheus(TestAggregation.SERIES)
        assert 'repro_fleet_trials_per_sec{worker="w1"} 4.0' in text
        assert 'repro_fleet_trials_done{worker="w2"} 5' in text
        assert "repro_fleet_workers 2" in text
        assert "repro_fleet_trials_per_sec_total 5.0" in text
        assert text.endswith("\n")

    def test_empty_series_still_valid(self):
        text = render_metrics_prometheus({})
        assert "repro_fleet_workers 0" in text
