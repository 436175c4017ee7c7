"""One process's observability session in a traced run.

Every process working a run directory — the runner (under any
executor) and each :class:`repro.runner.worker.ShardWorker`
— opens the same session when the run is traced: a span writer under
``<run_dir>/trace/`` and a sampler thread appending time-series points
under ``<run_dir>/metrics/``.  Closing it stops the sampler, emits the
process's worker span, and closes the writer.  Strictly side-channel:
shard computation never sees it.
"""

from __future__ import annotations

import time

from repro.runner.leases import active_leases
from repro.telemetry import (
    MetricsSampler,
    MetricsWriter,
    TraceContext,
    TraceWriter,
    resolve_trace,
)


def metrics_point(run_dir, telemetry, gauges: dict) -> dict:
    """One time-series point: the process's gauges plus run-wide facts.

    Adds the run's live lease count and, when the process profiles, its
    per-phase seconds so far.
    """
    point = dict(gauges)
    try:
        point["leases_active"] = len(active_leases(run_dir))
    except OSError:
        pass
    if telemetry.enabled:
        phases = telemetry.snapshot().phase_seconds()
        if phases:
            point["phase_seconds"] = {
                name: round(seconds, 6) for name, seconds in phases.items()
            }
    return point


class TraceSession:
    """This process's span writer and metrics sampler for one run."""

    def __init__(self, run_dir, identity: dict, worker: str, telemetry, gauges):
        self.started = time.time()
        self.context = TraceContext.for_run(identity, run_dir, worker=worker)
        self.writer = TraceWriter(run_dir, self.context)
        self._sampler = MetricsSampler(
            MetricsWriter(run_dir, self.context.worker),
            lambda: metrics_point(run_dir, telemetry, gauges()),
        ).start()

    def close(self, worker_args: dict, run_args: dict | None = None) -> None:
        """Stop sampling, emit the worker span (and the run span), close.

        Only the runner passes ``run_args``: its process owns the run's
        root span, which every worker span names as its parent.
        """
        self._sampler.stop()
        ctx = self.context
        duration = time.time() - self.started
        self.writer.emit(
            f"worker {ctx.worker}", ts=self.started, duration=duration,
            span_id=ctx.worker_span_id, parent_id=ctx.run_span_id,
            category="worker", args=worker_args,
        )
        if run_args is not None:
            self.writer.emit(
                "run", ts=self.started, duration=duration,
                span_id=ctx.run_span_id, category="run", args=run_args,
            )
        self.writer.close()


def open_trace_session(trace, manifest, run_dir, worker: str, telemetry,
                       gauges) -> TraceSession | None:
    """The process's session when the run is traced, else ``None``.

    An explicit ``trace`` flag wins; ``None`` follows ``REPRO_TRACE`` and
    then the manifest's recorded flag, so every process that joins a
    traced run traces it.  ``gauges`` returns the process's own counters
    for each metrics point.
    """
    if not (resolve_trace(trace) or (trace is None and manifest.trace)):
        return None
    return TraceSession(run_dir, manifest.identity(), worker, telemetry, gauges)
