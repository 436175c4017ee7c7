"""Low-overhead tracing and metrics for the whole stack.

``repro.telemetry`` answers "where does a campaign's wall-clock go?"
with three layers:

* **collection** (:mod:`repro.telemetry.core`) — named counters and
  nestable timed spans, recorded into the process-active
  :class:`Telemetry` collector; a shared no-op collector makes disabled
  runs effectively free;
* **reduction** — :class:`TelemetrySnapshot` merges associatively, so
  fork-pool workers profile their own shards and the runner reduces the
  shipped snapshots in any order;
* **export** (:mod:`repro.telemetry.export` /
  :mod:`repro.telemetry.report`) — a JSON snapshot in the run
  directory, a Prometheus text rendering, and a markdown run report
  joining ``events.jsonl`` with span timings.

Two fleet-scale layers join them for distributed runs:

* **tracing** (:mod:`repro.telemetry.trace`) — causally-parented span
  records per worker under ``<run-dir>/trace/``, exportable to Chrome
  trace-event JSON (``campaign trace export``);
* **time series** (:mod:`repro.telemetry.timeseries`) — per-worker
  samplers appending throughput/RSS/lease points under
  ``<run-dir>/metrics/``, folded into run-level series and a
  Prometheus textfile rendering (``campaign metrics``).

Enable with ``REPRO_TELEMETRY=1``, ``run_campaign(..., telemetry=True)``
or the CLI's ``campaign run --profile``; tracing+metrics with
``REPRO_TRACE=1`` / ``--trace``; inspect with
``posit-resiliency telemetry report <run-dir>`` and
``posit-resiliency campaign top <run-dir>``.
"""

from repro.telemetry.core import (
    DISABLED,
    TELEMETRY_ENV_VAR,
    SpanStats,
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
    resolve_collector,
    telemetry_enabled_by_env,
    telemetry_scope,
)
from repro.telemetry.export import (
    TELEMETRY_FILE_NAME,
    WORKER_TELEMETRY_DIR_NAME,
    load_run_snapshot,
    load_snapshot,
    load_worker_snapshots,
    render_prometheus,
    telemetry_path,
    worker_telemetry_path,
    write_snapshot,
    write_worker_snapshot,
)
from repro.telemetry.humanize import format_count, format_duration, format_rate
from repro.telemetry.report import render_run_report, write_run_report
from repro.telemetry.timeseries import (
    METRICS_DIR_NAME,
    MetricsSampler,
    MetricsWriter,
    aggregate_metrics,
    latest_points,
    metrics_path,
    process_rss_bytes,
    read_metrics,
    render_metrics_prometheus,
)
from repro.telemetry.trace import (
    TRACE_DIR_NAME,
    TRACE_ENV_VAR,
    TraceContext,
    TraceWriter,
    chrome_trace,
    read_trace,
    resolve_trace,
    trace_enabled_by_env,
    trace_path,
    trace_workers,
    write_chrome_trace,
)

__all__ = [
    "DISABLED",
    "METRICS_DIR_NAME",
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_FILE_NAME",
    "TRACE_DIR_NAME",
    "TRACE_ENV_VAR",
    "WORKER_TELEMETRY_DIR_NAME",
    "MetricsSampler",
    "MetricsWriter",
    "SpanStats",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceContext",
    "TraceWriter",
    "aggregate_metrics",
    "chrome_trace",
    "format_count",
    "format_duration",
    "format_rate",
    "get_telemetry",
    "latest_points",
    "load_run_snapshot",
    "load_snapshot",
    "load_worker_snapshots",
    "metrics_path",
    "process_rss_bytes",
    "read_metrics",
    "read_trace",
    "render_metrics_prometheus",
    "render_prometheus",
    "render_run_report",
    "resolve_collector",
    "resolve_trace",
    "telemetry_enabled_by_env",
    "telemetry_path",
    "telemetry_scope",
    "trace_enabled_by_env",
    "trace_path",
    "trace_workers",
    "worker_telemetry_path",
    "write_chrome_trace",
    "write_run_report",
    "write_snapshot",
    "write_worker_snapshot",
]
