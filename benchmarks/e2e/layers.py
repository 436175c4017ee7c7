"""Outside-in layer tracing for the end-to-end benchmark.

The traced rep wraps the public callables of each layer at the site
where their caller looks them up -- a module global such as
``repro.runner.runner.run_campaign_shard`` or a class attribute such as
``RunManifest.write`` -- and records a span per call.  Nothing inside
``src/`` is touched: the wrappers live only in the traced child process
and are removed again on exit.

Accounting.  Each thread keeps its own span stack, because the
time-series sampler appends metric points from a thread of its own.  A
span's *self time* is its duration minus the time its child spans cover,
so the self times of every span under the benchmark's root span
(``bench.body``) add up to the root's duration exactly; the root's own
self time is the *unattributed* remainder.  Spans are filed by scope:
``body`` (main thread, under the root), ``setup`` (main thread, before
the root opens) and ``thread`` (any other thread).

This module imports only the standard library, so the benchmark's parent
process can use its metric table without importing the program under test.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

#: Span opened by the benchmark around a rep's timed body.
BODY = "bench.body"

PERSIST = "campaign-persist"
BIGFIELD = "campaign-bigfield"
PARALLEL = "campaign-parallel"
APPS = "app-solvers"
WORKLOADS = (PERSIST, BIGFIELD, PARALLEL, APPS)


class Tracer:
    """Per-thread span stacks plus named counts for one traced rep."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.main_thread = threading.get_ident()
        self.recording = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()

    def live(self) -> bool:
        # Pool workers fork from the traced child and inherit the
        # wrappers; their spans could never reach the parent, so they
        # run unrecorded.
        return self.recording and os.getpid() == self.pid

    def enter(self, layer: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [layer, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> str:
        """Close ``frame``; returns the scope its self time was filed under."""
        duration = perf_counter() - frame[2]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][1] += duration
        bottom = stack[0][0] if stack else frame[0]
        if bottom == BODY:
            scope = "body"
        elif threading.get_ident() == self.main_thread:
            scope = "setup"
        else:
            scope = "thread"
        with self._lock:
            self.self_s[scope][frame[0]] += duration - frame[1]
        return scope

    @contextmanager
    def span(self, layer: str):
        if not self.live():
            yield
            return
        frame = self.enter(layer)
        try:
            yield
        finally:
            self.exit(frame)

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def fired(self, site: str) -> None:
        with self._lock:
            self.calls[site] += 1

    def raw(self) -> dict:
        """The JSON-serializable record the traced child reports."""
        return {
            "self_s": {scope: dict(layers) for scope, layers in self.self_s.items()},
            "counts": dict(self.counts),
            "calls": dict(self.calls),
        }


class NullTracer:
    """Stand-in for untraced reps: spans cost one ``nullcontext``."""

    def span(self, layer: str):
        return nullcontext()


# -- call sites -------------------------------------------------------------


def _count_shard(tracer, args, kwargs, result) -> None:
    tracer.add("inject.shards")
    tracer.add("inject.trials", len(result))


def _count_csv(tracer, args, kwargs, result) -> None:
    tracer.add("inject.csv_bytes", len(result))


def _count_manifest(tracer, args, kwargs, result) -> None:
    tracer.add("runner.manifest_writes")
    run_dir = kwargs["run_dir"] if "run_dir" in kwargs else args[1]
    tracer.add("runner.manifest_bytes",
               os.stat(os.path.join(os.fspath(run_dir), "manifest.json")).st_size)


def _counter(name: str):
    return lambda tracer, args, kwargs, result: tracer.add(name)


def _count_round_trip(tracer, args, kwargs, result) -> None:
    tracer.add("formats.round_trip_calls")
    tracer.add("formats.round_trip_values", int(getattr(result, "size", 0)))


def _count_solve(tracer, args, kwargs, result) -> None:
    tracer.add("apps.solves")
    tracer.add("apps.solver_iterations", int(result.iterations))


ALL = frozenset(WORKLOADS)
PERSISTED = frozenset({PERSIST, PARALLEL, APPS})
IN_PROCESS_VALUE = frozenset({PERSIST, BIGFIELD})
SERIAL = frozenset({PERSIST, BIGFIELD, APPS})


@dataclass(frozen=True)
class Site:
    """One wrapped callable: ``module:attr`` or ``module:Class.attr``.

    ``required`` names the workloads on which the site must fire; a
    zero count there means the call site moved and the trace would
    silently lose a layer, so the traced rep fails instead.
    """

    target: str
    layer: str
    required: frozenset
    count: Callable | None = None


SITES = (
    Site("repro.runner.runner:CampaignRunner.__init__", "runner.init", ALL),
    Site("repro.runner.runner:CampaignRunner.run", "runner.run", ALL),
    # The finish path (shard sha256, write + rename, manifest update,
    # hooks) runs inside the executor but is runner policy, so it is
    # filed under the runner's own layer rather than the executor's.
    Site("repro.runner.executors:ExecutionContext.finish", "runner.run", ALL),
    Site("repro.runner.executors:SerialExecutor.execute", "runner.executor", SERIAL),
    Site("repro.runner.executors:PoolExecutor.execute", "runner.executor",
         frozenset({PARALLEL})),
    Site("repro.runner.runner:run_campaign_shard", "inject.shard", IN_PROCESS_VALUE,
         _count_shard),
    Site("repro.runner.runner:field_pipeline", "inject.field_pipeline", ALL,
         _counter("inject.field_pipeline_calls")),
    Site("repro.inject.trial:field_pipeline", "inject.field_pipeline", IN_PROCESS_VALUE,
         _counter("inject.field_pipeline_calls")),
    Site("repro.runner.runner:conversion_report", "inject.conversion_report", ALL),
    Site("repro.runner.runner:dataset_fingerprint", "runner.fingerprint", PERSISTED),
    Site("repro.metrics.summary:SummaryStats.from_array", "metrics.baseline", ALL),
    # Concrete formats inherit round_trip from the base class, so the
    # base-class attribute is the one lookup site for all of them.
    Site("repro.formats.base:NumberFormat.round_trip", "formats.round_trip", ALL,
         _count_round_trip),
    Site("repro.inject.results:TrialRecords.to_csv_string", "inject.to_csv",
         frozenset({PERSIST, PARALLEL}), _count_csv),
    Site("repro.inject.results:TrialRecords.read_csv", "inject.read_csv",
         frozenset({PERSIST, PARALLEL}), _counter("inject.read_csv_calls")),
    Site("repro.apps.campaign:AppTrialRecords.to_csv_string", "inject.to_csv",
         frozenset({APPS}), _count_csv),
    Site("repro.apps.campaign:AppTrialRecords.read_csv", "inject.read_csv",
         frozenset({APPS}), _counter("inject.read_csv_calls")),
    Site("repro.runner.verify:shard_checksum", "runner.checksum", PERSISTED),
    Site("repro.runner.manifest:RunManifest.write", "runner.manifest_write", PERSISTED,
         _count_manifest),
    Site("repro.runner.events:EventLogWriter.on_event", "runner.events", PERSISTED,
         _counter("runner.events")),
    Site("repro.telemetry.trace:TraceWriter.emit", "telemetry.trace_emit",
         frozenset({PARALLEL}), _counter("telemetry.trace_records")),
    Site("repro.telemetry.trace:TraceWriter.shard_span", "telemetry.trace_emit",
         frozenset({PARALLEL})),
    Site("repro.telemetry.timeseries:MetricsWriter.append", "telemetry.metrics_append",
         frozenset({PARALLEL}), _counter("telemetry.metrics_points")),
    Site("repro.runner.runner:write_snapshot", "telemetry.snapshot_write",
         frozenset({PARALLEL})),
    Site("repro.apps.campaign:run_app_shard", "apps.shard", frozenset({APPS}),
         _counter("apps.shards")),
    Site("repro.apps.campaign:cg_solve", "apps.solve", frozenset({APPS}), _count_solve),
    Site("repro.apps.campaign:jacobi_solve", "apps.solve", frozenset({APPS}), _count_solve),
    Site("repro.datasets.presets:FieldPreset.generate", "datasets.generate",
         frozenset({PERSIST, BIGFIELD, PARALLEL})),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(tracer: Tracer, site: Site, raw):
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw
    layer, key, count = site.layer, site.target, site.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.live():
            return fn(*args, **kwargs)
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            scope = tracer.exit(frame)
        tracer.fired(key)
        if count is not None and scope != "setup":
            count(tracer, args, kwargs, result)
        return result

    return classmethod(wrapper) if is_classmethod else wrapper


@contextmanager
def installed(tracer: Tracer, sites=SITES):
    """Wrap every site for the duration of the block, then restore it.

    A site whose attribute no longer exists raises ``KeyError`` here:
    a moved call site fails the traced rep loudly.
    """
    patched = []
    try:
        for site in sites:
            owner, attr = _resolve(site.target)
            raw = vars(owner)[attr]
            patched.append((owner, attr, raw))
            setattr(owner, attr, _wrap(tracer, site, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


def unfired(calls: dict, workload: str, sites=SITES) -> list[str]:
    """Sites required on ``workload`` that never fired."""
    return [
        site.target
        for site in sites
        if workload in site.required and not calls.get(site.target)
    ]


# -- per-layer metrics ------------------------------------------------------

#: Layer self time as a share of the traced rep's body wall time.
#: Shares, not seconds: a layer a workload never enters (persistence on
#: the in-memory workload) reads 0 on every run, which is a fact about
#: the workload, not a measured time.  Seconds are share x
#: ``bench.traced_wall_s``.
FRACTIONS = (
    ("inject.to_csv_frac", "inject.to_csv"),
    ("runner.manifest_write_frac", "runner.manifest_write"),
    ("runner.events_frac", "runner.events"),
    ("runner.run_self_frac", "runner.run"),
    ("inject.read_csv_frac", "inject.read_csv"),
    ("runner.checksum_frac", "runner.checksum"),
    ("runner.verify_frac", "runner.verify"),
    ("formats.round_trip_frac", "formats.round_trip"),
    ("inject.field_pipeline_frac", "inject.field_pipeline"),
    ("inject.conversion_report_frac", "inject.conversion_report"),
    ("metrics.baseline_frac", "metrics.baseline"),
    ("runner.init_frac", "runner.init"),
    ("runner.fingerprint_frac", "runner.fingerprint"),
    ("inject.shard_frac", "inject.shard"),
    ("runner.executor_frac", "runner.executor"),
    ("telemetry.trace_emit_frac", "telemetry.trace_emit"),
    ("telemetry.snapshot_write_frac", "telemetry.snapshot_write"),
    ("telemetry.metrics_append_frac", "telemetry.metrics_append"),
    ("apps.shard_frac", "apps.shard"),
    ("apps.solve_frac", "apps.solve"),
)

#: Exact counts recorded by the wrappers or measured after the body.
COUNTS = (
    "inject.csv_bytes",
    "runner.manifest_writes",
    "runner.manifest_bytes",
    "runner.events",
    "inject.read_csv_calls",
    "runner.run_dir_bytes",
    "formats.round_trip_calls",
    "formats.round_trip_values",
    "inject.field_pipeline_calls",
    "inject.shards",
    "inject.trials",
    "telemetry.trace_records",
    "telemetry.metrics_points",
    "telemetry.side_channel_bytes",
    "apps.shards",
    "apps.solves",
    "apps.solver_iterations",
)


def layer_seconds(raw: dict) -> dict[str, float]:
    """Self seconds per layer inside the body (main thread + other threads)."""
    seconds: dict[str, float] = defaultdict(float)
    for scope in ("body", "thread"):
        for layer, value in raw["self_s"].get(scope, {}).items():
            seconds[layer] += value
    return dict(seconds)


def layer_metrics(raw: dict, wall_s: float, setup_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced rep.

    ``wall_s``/``setup_s`` are the traced rep's own body and set-up
    times; ``untraced_wall_s`` is the median body time of the untraced
    reps it is compared against.
    """
    seconds = layer_seconds(raw)
    metrics = {name: seconds.get(layer, 0.0) / wall_s for name, layer in FRACTIONS}
    generate = raw["self_s"].get("setup", {}).get("datasets.generate", 0.0)
    metrics["datasets.generate_frac"] = generate / setup_s
    metrics.update({name: raw["counts"].get(name, 0) for name in COUNTS})
    metrics["bench.unattributed_frac"] = seconds.get(BODY, 0.0) / wall_s
    metrics["bench.trace_overhead_frac"] = wall_s / untraced_wall_s - 1.0
    metrics["bench.traced_wall_s"] = wall_s
    metrics["bench.traced_setup_s"] = setup_s
    return metrics
