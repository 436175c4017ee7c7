"""The campaign runner: one execution engine for every campaign path.

A :class:`CampaignRunner` turns a campaign into a plan of per-bit
:class:`ShardSpec` units (the same unit of work the paper scatters over
cluster nodes), executes them serially or on a fork pool, and — when
given a run directory — persists every completed shard plus its done
record, and writes a JSON manifest folded from those records at start,
checkpoint, and finish, so an interrupted run can :meth:`resume` to a result
bit-identical to an uninterrupted one.  Bit-identity is guaranteed by
the campaign's seeding discipline: each bit's trial stream comes from an
independent ``SeedSequence.spawn`` child, so shards can run in any
order, any number of times, on any worker, and produce the same records.

Every process computes a shard the same way: through the run's shard
job (:class:`ShardJob` here, :class:`repro.apps.campaign.AppShardJob` for
app campaigns), which the runner builds once and hands to every executor,
pool worker, and :class:`repro.runner.worker.ShardWorker`.

Failure handling: a shard that raises in a worker is retried with
exponential backoff; if the pool itself breaks (or retries are
exhausted), the shard degrades to in-process execution instead of
losing the run.  Hardened paths (see ``docs/robustness.md``): shard
files carry SHA-256 checksums verified on resume (corrupt files are
quarantined, never trusted), pool workers heartbeat so a hung or dead
worker is detected, killed, and its shard requeued, writes are atomic,
and SIGTERM checkpoints like Ctrl-C.  A :class:`repro.chaos.FaultPlan`
passed as ``chaos=`` injects infrastructure faults into all of this to
prove the run either completes bit-identical or fails loudly.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.formats import resolve
from repro.inject.campaign import (
    CampaignConfig,
    CampaignResult,
    bit_seeds,
    conversion_report,
    run_campaign_shard,
)
from repro.inject.results import TrialRecords
from repro.inject.trial import FieldPipeline, field_pipeline
from repro.metrics.summary import SummaryStats
from repro.runner.errors import ManifestError, RunnerError, SignalInterrupt
from repro.runner.events import (
    EventLogWriter,
    ProgressRenderer,
    RunnerEvent,
    close_hooks,
    dispatch_event,
)
from repro.runner.executors import ExecutionContext, resolve_executor, timed_compute
from repro.runner.leases import (
    active_leases,
    cancel_requested,
    default_worker_id,
    write_done_record,
)
from repro.runner.manifest import (
    RUN_COMPLETED,
    RUN_INTERRUPTED,
    RUN_RUNNING,
    RUN_SUBMITTED,
    SHARD_PENDING,
    RunManifest,
    ShardState,
    dataset_fingerprint,
    fold_done_records,
    load_folded,
    persist_shard_file,
    quarantine_dir,
    quarantine_file,
    read_completions,
)
from repro.runner.observe import TraceSession, open_trace_session
from repro.runner.verify import ShardProblem, load_trusted_shard
from repro.telemetry import (
    TelemetrySnapshot,
    TraceContext,
    format_duration,
    load_run_snapshot,
    resolve_collector,
    resolve_trace,
    telemetry_path,
    telemetry_scope,
    write_snapshot,
)


# Backwards-compatible re-exports: these lived here before runner/errors.py.
__all__ = [
    "CampaignRunner",
    "ManifestError",
    "RunStatus",
    "RunnerError",
    "ShardJob",
    "ShardSpec",
    "SignalInterrupt",
    "resume_campaign",
    "run_status",
]


@dataclass(frozen=True)
class ShardSpec:
    """One unit of campaign work: all trials of a single bit position."""

    bit: int
    trials: int
    seed: np.random.SeedSequence = field(compare=False, hash=False)


@dataclass(frozen=True, eq=False)
class ShardJob:
    """What one shard of a value campaign computes, in any process.

    Holds the runner's :class:`~repro.inject.trial.FieldPipeline` (the
    field's one store) and baseline, never copies: forked workers
    inherit them with the job and share them copy-on-write, and a lease
    worker builds them once, in :meth:`CampaignRunner.from_run_dir`.
    """

    pipeline: FieldPipeline
    baseline: SummaryStats
    fault: str

    def compute(self, bit: int, trials: int, seed) -> TrialRecords:
        return run_campaign_shard(
            self.pipeline, self.pipeline.target, bit, trials, seed, self.baseline,
            fault_spec=self.fault,
        )


@dataclass(frozen=True)
class RunStatus:
    """Snapshot of a run directory (the ``campaign status`` command).

    Counts come from the manifest folded with the done records under
    ``leases/``, so a run in flight — or killed between checkpoints —
    reports live progress, not the manifest's last write.
    """

    run_dir: str
    target_spec: str
    label: str
    status: str
    shards_total: int
    shards_done: int
    trials_total: int
    trials_done: int
    pending_bits: tuple[int, ...]
    missing_shard_files: tuple[int, ...]
    phase_seconds: dict | None = None
    quarantined_files: tuple[str, ...] = ()
    executor: str | None = None
    cancelled: bool = False
    workers: tuple[dict, ...] = ()
    fault: str = "single"
    #: App name (``cg``/``jacobi``) for app campaigns, ``None`` otherwise.
    app: str | None = None

    @property
    def complete(self) -> bool:
        return self.status == RUN_COMPLETED and not self.pending_bits

    def summary(self) -> str:
        lines = [
            f"run:     {self.run_dir}",
            f"target:  {self.target_spec}"
            + (f"  (label: {self.label})" if self.label else "")
            + (f"  [app: {self.app}]" if self.app else "")
            + (f"  [fault: {self.fault}]" if self.fault != "single" else ""),
            f"status:  {self.status}"
            + (f"  (executor: {self.executor})" if self.executor else "")
            + ("  [cancel requested]" if self.cancelled else ""),
            f"shards:  {self.shards_done}/{self.shards_total} completed",
            f"trials:  {self.trials_done}/{self.trials_total}",
        ]
        if self.workers:
            claims = ", ".join(
                f"bit {w['bit']} by {w['worker']} ({w['age_seconds']:.0f}s ago)"
                for w in self.workers
            )
            lines.append(f"workers: {claims}")
        if self.pending_bits:
            lines.append(f"pending: bits {', '.join(map(str, self.pending_bits))}")
        if self.missing_shard_files:
            lines.append(
                "warning: manifest marks bits "
                f"{', '.join(map(str, self.missing_shard_files))} completed "
                "but their shard files are missing (they will re-run on resume)"
            )
        if self.quarantined_files:
            lines.append(
                f"quarantine: {len(self.quarantined_files)} corrupt shard file(s) "
                "preserved under shards/quarantine/"
            )
        if self.phase_seconds:
            breakdown = ", ".join(
                f"{phase} {format_duration(seconds)}"
                for phase, seconds in sorted(
                    self.phase_seconds.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(f"phases:  {breakdown}")
        return "\n".join(lines)


class CampaignRunner:
    """Executes one campaign as a resumable, observable plan of shards.

    Parameters
    ----------
    data:
        The dataset field (any array-like; flattened).
    target:
        A :class:`repro.formats.NumberFormat` or any registry spec string.
    config:
        Campaign parameters (defaults to :class:`CampaignConfig`).
    label:
        Free-text label stored in results and the manifest.
    jobs:
        Worker processes; ``1`` runs in-process, ``None`` auto-sizes to
        the CPU count capped at the shard count.  Zero or negative values
        are rejected; values above the shard count are capped with a
        warning.
    executor:
        Which execution mechanism drives the pending shards: ``None``
        picks serial or pool from ``jobs`` (the historical behaviour), a
        registry name (``"serial"``, ``"pool"``, ``"work-stealing"``)
        instantiates that executor, and an
        :class:`repro.runner.executors.Executor` instance is used as-is.
        The runner stays the *policy* layer (planning, persistence,
        verification, events); executors are pure *mechanism*.
    run_dir:
        Directory for shard records, the manifest, and the event log.
        ``None`` runs fully in memory (no persistence, no resume).
    hooks:
        A hooks object or iterable of them (see
        :class:`repro.runner.events.RunnerHooks`).
    progress:
        Attach a terminal :class:`ProgressRenderer` to stderr.
    dataset:
        Optional provenance mapping stored in the manifest (e.g.
        ``{"kind": "preset", "field": ..., "size": ..., "seed": ...}``)
        letting ``campaign resume`` regenerate the data.
    max_retries:
        Extra attempts per failed shard before degrading/failing.
    heartbeat_timeout:
        Optional staleness limit in seconds for claimed shards.  Pool
        workers heartbeat when they claim and finish a shard; a shard
        claimed but unfinished for longer than this is treated as hung —
        its worker is SIGKILLed and the shard requeued.  Dead workers
        (crashes) are detected immediately regardless of this value.
    chaos:
        Optional :class:`repro.chaos.FaultPlan` injecting infrastructure
        faults (worker crashes/hangs/raises, shard and manifest
        corruption, hard kills) into this run — for testing the
        harness, never for production campaigns.
    telemetry:
        Profiling control (:func:`repro.telemetry.resolve_collector`):
        ``None`` follows ``REPRO_TELEMETRY``, ``True``/``False`` force a
        fresh collector / the no-op one, and an explicit
        :class:`repro.telemetry.Telemetry` instance aggregates across
        runs.  When enabled, the merged snapshot is written to
        ``<run_dir>/telemetry.json`` and attached to
        ``result.extras["telemetry"]``.
    trace:
        Distributed tracing + time-series metrics control
        (:func:`repro.telemetry.resolve_trace`): ``None`` follows
        ``REPRO_TRACE`` (then the manifest's recorded flag on resume),
        booleans force it.  When enabled — and the run has a directory —
        this process appends causally-parented span records to
        ``<run_dir>/trace/<worker>.jsonl`` and a sampler thread appends
        throughput/RSS/lease points to ``<run_dir>/metrics/<worker>.jsonl``.
        Tracing never touches shard computation: CSVs stay byte-identical
        with it on or off.
    """

    #: Which records class shards produce and shard CSVs parse as.
    #: Subclasses (app campaigns) override to swap the trial schema
    #: without touching persistence, resume, or adoption logic.
    records_class = TrialRecords

    def __init__(
        self,
        data,
        target,
        config: CampaignConfig | None = None,
        *,
        label: str = "",
        jobs: int | None = 1,
        executor=None,
        run_dir: str | os.PathLike | None = None,
        hooks=None,
        progress: bool = False,
        dataset: dict | None = None,
        max_retries: int = 2,
        heartbeat_timeout: float | None = None,
        chaos=None,
        telemetry=None,
        trace=None,
    ):
        from repro.inject.parallel import validate_jobs

        self.target = resolve(target)
        self.config = config if config is not None else CampaignConfig()
        self.label = label
        self.jobs = validate_jobs(jobs)
        self.executor = executor
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.dataset = dataset
        self.max_retries = int(max_retries)
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        self.heartbeat_timeout = heartbeat_timeout
        self.chaos = chaos
        self.telemetry = resolve_collector(telemetry)
        self.telemetry_snapshot: TelemetrySnapshot | None = None
        # Remember whether tracing was an explicit choice: a None
        # argument lets a resumed run follow its manifest's flag.
        self._trace_arg = trace
        self.trace_enabled = resolve_trace(trace)

        self._flat = np.asarray(data).reshape(-1)
        if self._flat.size == 0:
            raise ValueError("cannot run a campaign on an empty dataset")
        with telemetry_scope(self.telemetry):
            # The one store of the field: the baseline, every shard (and
            # every forked worker, through the job), and the conversion
            # report read it.
            self.pipeline = field_pipeline(self.target, self._flat)
            self.baseline = SummaryStats.from_array(self.pipeline.stored)

        if hooks is None:
            hooks = []
        elif not isinstance(hooks, (list, tuple)):
            hooks = [hooks]
        self.hooks: list = list(hooks)
        if progress:
            self.hooks.append(ProgressRenderer())

        # Mutable per-run state (reset by run()).
        self._completed: dict[int, TrialRecords] = {}
        self._manifest: RunManifest | None = None
        self._started = 0.0
        self._busy_time = 0.0
        self._trials_done = 0
        self._shards_done = 0
        self._effective_jobs = 1
        self._retry_count = 0
        self._hung_count = 0
        self._quarantined: list[dict] = []
        self._trace_ctx: TraceContext | None = None
        self._trace: TraceSession | None = None
        self._worker_id = default_worker_id()

    # -- planning -----------------------------------------------------------

    @cached_property
    def job(self):
        """The run's shard job, built when shards first run (submit builds none)."""
        return self._build_job()

    def _build_job(self):
        return ShardJob(self.pipeline, self.baseline, self.config.fault)

    def plan(self) -> list[ShardSpec]:
        """The per-bit shard plan, in ascending bit order."""
        return [
            ShardSpec(bit=bit, trials=self.config.trials_per_bit, seed=seed)
            for bit, seed in bit_seeds(self.config, self.target).items()
        ]

    def _fresh_manifest(self, shards: list[ShardSpec]) -> RunManifest:
        return RunManifest(
            target_spec=self.target.name,
            label=self.label,
            trials_per_bit=self.config.trials_per_bit,
            bits=self.config.bits,
            seed=self.config.seed,
            fault=self.config.fault,
            data_fingerprint=dataset_fingerprint(self._flat),
            data_size=int(self._flat.size),
            dataset=self.dataset,
            shards={s.bit: ShardState(bit=s.bit, trials=s.trials) for s in shards},
        )

    # -- public API ---------------------------------------------------------

    def run(self, *, resume: bool = False) -> CampaignResult:
        """Execute (or finish) the campaign and return its result.

        SIGTERM is handled like Ctrl-C for the duration of the run (when
        called from the main thread): the manifest checkpoints as
        interrupted, telemetry flushes, a ``run_interrupted`` event is
        emitted, and :class:`SignalInterrupt` (a ``KeyboardInterrupt``)
        propagates — so a batch scheduler's kill leaves a resumable run.
        """
        shards = self.plan()
        self._completed = {}
        self._started = time.monotonic()
        self._busy_time = 0.0
        self._retry_count = 0
        self._hung_count = 0
        self._quarantined = []

        if self.run_dir is not None:
            self._prepare_persistence(shards, resume)
        else:
            if resume:
                raise RunnerError("resume requires a run_dir")
            self._manifest = None

        trials_total = sum(s.trials for s in shards)
        self._trials_done = sum(self._completed[b].trial.size for b in self._completed)
        self._shards_done = len(self._completed)
        pending = [s for s in shards if s.bit not in self._completed]
        self._effective_jobs = self._resolve_jobs(len(pending))
        executor = resolve_executor(
            self.executor, jobs=self._effective_jobs, pending=len(pending)
        )
        # One identity for this process's done records, lease claims,
        # and trace lane, so `campaign top` sees one worker, not two.
        self._worker_id = default_worker_id()
        if executor.name == "work-stealing":
            self._worker_id += "-coord"

        owned_hooks = []
        self._trace = None
        if self._manifest is not None:
            # The run's one start write: status, executor, and tracing
            # choice together.  Shards are not written into the manifest
            # as they finish; checkpoint and finish fold their done records.
            self._manifest.status = RUN_RUNNING
            self._manifest.executor = executor.name
            self._manifest.trace = self._manifest.trace or self.trace_enabled
            self._manifest.write(self.run_dir)
            owned_hooks.append(EventLogWriter(RunManifest.event_log_path(self.run_dir)))
            # Fleet observability: when tracing is on (explicitly, via
            # REPRO_TRACE, or recorded in a resumed manifest) this process
            # becomes one trace/metrics writer among the run's workers.
            self._trace = open_trace_session(
                self._trace_arg, self._manifest, self.run_dir, self._worker_id,
                self.telemetry, self._gauges,
            )
        self._trace_ctx = self._trace.context if self._trace is not None else None
        hooks = self.hooks + owned_hooks

        # Treat a scheduler's SIGTERM like Ctrl-C: checkpoint, flush,
        # announce, re-raise.  Signal handlers only install from the main
        # thread; elsewhere the default disposition stays in place.
        sigterm_installed = False
        previous_sigterm = None
        if threading.current_thread() is threading.main_thread():
            def _on_sigterm(signum, frame):
                raise SignalInterrupt(signum)

            previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
            sigterm_installed = True

        try:
            with telemetry_scope(self.telemetry):
                try:
                    with self.telemetry.span("runner.run"):
                        self._emit(
                            hooks,
                            "run_start",
                            shards_total=len(shards),
                            trials_total=trials_total,
                            detail={
                                "target": self.target.name,
                                "label": self.label,
                                "resumed_shards": self._shards_done,
                                "run_dir": str(self.run_dir) if self.run_dir else None,
                            },
                        )
                        for entry in self._quarantined:
                            self.telemetry.count("runner.shards_quarantined")
                            self._emit(hooks, "shard_quarantined",
                                       bit=entry["bit"], error=entry["reason"],
                                       shards_total=len(shards),
                                       trials_total=trials_total,
                                       detail={"quarantined_to": entry["quarantined_to"]})
                        for bit in sorted(self._completed):
                            self._emit(hooks, "shard_skipped", bit=bit,
                                       shards_total=len(shards), trials_total=trials_total)

                        executor.execute(
                            pending,
                            ExecutionContext(self, hooks, len(shards), trials_total),
                        )
                except BaseException as error:
                    if self._manifest is not None:
                        self._write_folded_manifest(RUN_INTERRUPTED)
                    # Persist the partial profile too: an interrupted run's
                    # telemetry is exactly what a post-mortem wants.
                    self._snapshot_telemetry()
                    self._emit(hooks, "run_interrupted", error=repr(error),
                               shards_total=len(shards), trials_total=trials_total)
                    raise

                records = self.records_class.concatenate(
                    [self._completed[s.bit] for s in shards]
                )
                result = CampaignResult(
                    target_name=self.target.name,
                    config=self.config,
                    baseline=self.baseline,
                    records=records,
                    conversion=conversion_report(self._flat, self.pipeline.stored),
                    data_size=int(self._flat.size),
                    label=self.label,
                    extras={
                        "run_dir": str(self.run_dir) if self.run_dir else None,
                        "resumed_shards": len(shards) - len(pending),
                        "shard_retries": self._retry_count,
                        "shards_hung": self._hung_count,
                        "shards_quarantined": len(self._quarantined),
                        "jobs": self._effective_jobs,
                        "executor": executor.name,
                    },
                )
                snapshot = self._snapshot_telemetry()
                if snapshot is not None:
                    result.extras["telemetry"] = snapshot
                if self._manifest is not None:
                    self._write_folded_manifest(RUN_COMPLETED)
                self._emit(hooks, "run_finish",
                           shards_total=len(shards), trials_total=trials_total)
                return result
        finally:
            if sigterm_installed:
                signal.signal(signal.SIGTERM, previous_sigterm or signal.SIG_DFL)
            if self._trace is not None:
                self._trace.close(
                    {"role": "coordinator", "jobs": self._effective_jobs},
                    run_args={"target": self.target.name, "executor": executor.name,
                              "shards_done": self._shards_done},
                )
                self._trace = None
            close_hooks(owned_hooks)

    def resume(self) -> CampaignResult:
        """Finish a partial run; identical to ``run(resume=True)``."""
        return self.run(resume=True)

    @classmethod
    def from_run_dir(
        cls,
        run_dir: str | os.PathLike,
        data=None,
        **kwargs,
    ) -> "CampaignRunner":
        """Rehydrate a runner from a run directory's manifest.

        ``data`` may be omitted when the manifest records a regenerable
        dataset source (``{"kind": "preset", ...}``); otherwise the
        original array must be passed and is fingerprint-checked.

        App-campaign run directories (``manifest.app`` set) rehydrate as
        :class:`repro.apps.campaign.AppCampaignRunner` automatically.
        """
        manifest = RunManifest.load(run_dir)
        if manifest.app is not None and cls is CampaignRunner:
            from repro.apps.campaign import AppCampaignRunner

            return AppCampaignRunner.from_run_dir(run_dir, data, **kwargs)
        if data is None:
            data = _regenerate_dataset(manifest)
        config = CampaignConfig(
            trials_per_bit=manifest.trials_per_bit,
            bits=manifest.bits,
            seed=manifest.seed,
            fault=manifest.fault,
        )
        kwargs.setdefault("label", manifest.label)
        kwargs.setdefault("dataset", manifest.dataset)
        return cls(data, manifest.target_spec, config, run_dir=run_dir, **kwargs)

    # -- persistence --------------------------------------------------------

    def _prepare_persistence(self, shards: list[ShardSpec], resume: bool) -> None:
        from repro.runner.manifest import MANIFEST_NAME

        manifest_path = Path(self.run_dir) / MANIFEST_NAME
        fresh = self._fresh_manifest(shards)
        if manifest_path.is_file():
            # Done records the manifest has not folded yet (a killed run,
            # or work-stealing workers) count as completions, so a resume
            # restores — and verifies — those shards instead of recomputing.
            existing = load_folded(self.run_dir)
            mismatches = fresh.mismatches(existing)
            if mismatches:
                raise RunnerError(
                    f"run directory {self.run_dir} holds a different campaign: "
                    + "; ".join(mismatches)
                )
            if not resume:
                raise RunnerError(
                    f"run directory {self.run_dir} already contains this campaign "
                    f"(status: {existing.status}); resume it or pick a new directory"
                )
            self._manifest = existing
            self._restore_completed_shards()
        else:
            if resume and not manifest_path.parent.is_dir():
                raise FileNotFoundError(f"no campaign run at {self.run_dir}")
            self._manifest = fresh

    def _restore_completed_shards(self) -> None:
        """Load persisted shard records, refusing any that fail verification.

        Every restored shard must be trustworthy by
        :func:`repro.runner.verify.load_trusted_shard`.  A shard failing
        any check is demoted to pending *and* its file moved to
        ``shards/quarantine/`` — evidence is preserved, and the corrupt
        bytes can never silently feed a result.  A missing file simply
        demotes (there is nothing to quarantine).
        """
        for bit in self._manifest.completed_bits():
            state = self._manifest.shards[bit]
            path = RunManifest.shard_path(self.run_dir, bit)
            records = load_trusted_shard(
                path, self.records_class, checksum=state.checksum, trials=state.trials
            )
            if isinstance(records, ShardProblem):
                state.status = SHARD_PENDING
                state.checksum = None
                if records.kind != "missing":
                    dest = quarantine_file(self.run_dir, path)
                    self._quarantined.append(
                        {"bit": bit, "reason": records.message,
                         "quarantined_to": str(dest)}
                    )
                continue
            self._completed[bit] = records

    def _write_folded_manifest(self, status: str) -> None:
        """Checkpoint or finish: fold this run's done records, write once."""
        self._manifest = fold_done_records(self._manifest, read_completions(self.run_dir))
        self._manifest.status = status
        self._manifest.write(self.run_dir)

    def _gauges(self) -> dict:
        """This process's own counters for each time-series point."""
        elapsed = max(time.monotonic() - self._started, 1e-9)
        return {
            "trials_done": self._trials_done,
            "shards_done": self._shards_done,
            "jobs": self._effective_jobs,
            "utilization": round(
                min(self._busy_time / (elapsed * self._effective_jobs), 1.0), 4
            ),
        }

    def _snapshot_telemetry(self) -> TelemetrySnapshot | None:
        """Freeze the collector; persist it when the run has a directory."""
        if not self.telemetry.enabled:
            return None
        snapshot = self.telemetry.snapshot()
        self.telemetry_snapshot = snapshot
        if self.run_dir is not None and not snapshot.empty:
            write_snapshot(snapshot, telemetry_path(self.run_dir))
        return snapshot

    # -- execution ----------------------------------------------------------

    def _resolve_jobs(self, pending_count: int) -> int:
        from repro.inject.parallel import resolve_worker_count

        if pending_count == 0:
            return 1
        return resolve_worker_count(self.jobs, pending_count)

    def _compute_shard(self, spec: ShardSpec) -> tuple[TrialRecords, float]:
        return timed_compute(self.job, spec)

    def _finish_shard(self, spec: ShardSpec, records: TrialRecords, duration: float,
                      attempts: int, hooks, shards_total: int, trials_total: int) -> None:
        # Persist before announcing: a hook that raises (or a kill racing
        # the event) never loses a completed shard.  The done record lands
        # after the shard file, so it never vouches for a file not on disk.
        if self.run_dir is not None:
            checksum = persist_shard_file(self.run_dir, spec.bit, records)
            write_done_record(
                self.run_dir, spec.bit, trials=spec.trials, duration=duration,
                attempts=attempts, checksum=checksum, worker=self._worker_id,
            )
        self._completed[spec.bit] = records
        self._busy_time += duration
        self._trials_done += spec.trials
        self._shards_done += 1
        if self._trace is not None:
            # Serial shards (and pool shards, whose anonymous workers
            # can't write their own files) land in the coordinator's
            # trace lane; start time is reconstructed from the duration.
            self._trace.writer.shard_span(
                bit=spec.bit,
                attempt=attempts - 1,
                ts=time.time() - duration,
                duration=duration,
                args={"trials": spec.trials},
            )
        self._emit(hooks, "shard_finish", bit=spec.bit, attempt=attempts - 1,
                   shards_total=shards_total, trials_total=trials_total,
                   detail={"duration": round(duration, 6)})
        self._fire_artifact_chaos(spec.bit, hooks, shards_total, trials_total)

    def _fire_artifact_chaos(self, bit, hooks, shards_total, trials_total) -> None:
        """Chaos hook: damage run-dir artifacts after a shard persists."""
        if self.chaos is None or self.run_dir is None:
            return
        from repro.chaos import fire_artifact_faults

        def on_fault(spec, info):
            self.telemetry.count(f"chaos.fault.{spec.kind}")
            self._emit(hooks, "chaos_fault", bit=bit, error=f"chaos: {spec.kind}",
                       shards_total=shards_total, trials_total=trials_total,
                       detail=info)

        fire_artifact_faults(self.chaos, self.run_dir, bit,
                             shards_done=self._shards_done, on_fault=on_fault)

    def _adopt_shard(self, spec: ShardSpec, record: dict, hooks,
                     shards_total: int, trials_total: int) -> None:
        """Load a shard completed by another worker process into this run.

        The work-stealing coordinator trusts nothing it did not compute
        itself: the shard file must pass
        :func:`repro.runner.verify.load_trusted_shard` against the
        completing worker's done-record checksum.  The manifest picks
        the shard up from that done record at the next fold.
        """
        records = load_trusted_shard(
            RunManifest.shard_path(self.run_dir, spec.bit), self.records_class,
            checksum=record.get("checksum") or None, trials=spec.trials,
        )
        if isinstance(records, ShardProblem):
            raise RunnerError(f"adopted shard bit={spec.bit}: {records.message}")
        duration = float(record.get("duration") or 0.0)
        attempts = int(record.get("attempts") or 1)
        self._completed[spec.bit] = records
        self._busy_time += duration
        self._trials_done += spec.trials
        self._shards_done += 1
        self._emit(hooks, "shard_adopted", bit=spec.bit, attempt=attempts - 1,
                   shards_total=shards_total, trials_total=trials_total,
                   detail={"worker": record.get("worker"),
                           "duration": round(duration, 6)})

    # -- submission ---------------------------------------------------------

    def submit(self) -> RunManifest:
        """Create the run directory in *submitted* state without executing.

        Writes a fresh manifest (status ``submitted``, executor
        ``work-stealing``) and a ``run_submitted`` event, then returns.
        Any number of ``campaign worker`` processes pointed at the
        directory afterwards claim the pending shards through lease
        files and cooperate to finish the run.  Requires ``run_dir`` and
        refuses a directory that already holds a campaign.
        """
        if self.run_dir is None:
            raise RunnerError("submit requires a run_dir")
        from repro.runner.manifest import MANIFEST_NAME

        if (Path(self.run_dir) / MANIFEST_NAME).is_file():
            raise RunnerError(
                f"run directory {self.run_dir} already holds a campaign; "
                "submit into a fresh directory"
            )
        shards = self.plan()
        manifest = self._fresh_manifest(shards)
        manifest.status = RUN_SUBMITTED
        manifest.executor = "work-stealing"
        # Stamp the submitter's tracing choice so every standalone
        # worker that later claims shards follows it automatically.
        manifest.trace = self.trace_enabled
        manifest.write(self.run_dir)
        self._manifest = manifest
        self._started = time.monotonic()
        if self.trace_enabled:
            self._trace_ctx = TraceContext.for_run(
                manifest.identity(), self.run_dir, worker=default_worker_id()
            )
        with EventLogWriter(RunManifest.event_log_path(self.run_dir)) as log:
            self._emit([log, *self.hooks], "run_submitted",
                       shards_total=len(shards),
                       trials_total=sum(s.trials for s in shards),
                       detail={"target": self.target.name, "label": self.label,
                               "run_dir": str(self.run_dir)})
        return manifest

    # -- events -------------------------------------------------------------

    def _emit(self, hooks, kind: str, *, bit: int | None = None, attempt: int = 0,
              error: str | None = None, shards_total: int = 0, trials_total: int = 0,
              detail: dict | None = None) -> None:
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = self._trials_done / elapsed if self._trials_done else None
        remaining = trials_total - self._trials_done
        eta = remaining / rate if rate and remaining > 0 else None
        utilization = (
            min(self._busy_time / (elapsed * self._effective_jobs), 1.0)
            if self._shards_done
            else None
        )
        event = RunnerEvent(
            kind=kind,
            elapsed=round(elapsed, 6),
            bit=bit,
            attempt=attempt,
            shards_done=self._shards_done,
            shards_total=shards_total,
            trials_done=self._trials_done,
            trials_total=trials_total,
            jobs=self._effective_jobs,
            trials_per_sec=round(rate, 3) if rate else None,
            eta_seconds=round(eta, 3) if eta is not None else None,
            utilization=round(utilization, 4) if utilization is not None else None,
            error=error,
            trace_id=self._trace_ctx.trace_id if self._trace_ctx else None,
            detail=detail or {},
        )
        for hook in hooks:
            dispatch_event(hook, event)


def _regenerate_dataset(manifest: RunManifest) -> np.ndarray:
    """Rebuild the dataset from the manifest's recorded source."""
    source = manifest.dataset or {}
    if source.get("kind") == "preset":
        from repro.datasets.registry import get as get_preset

        return get_preset(source["field"]).generate(
            seed=int(source["seed"]), size=int(source["size"])
        )
    if source.get("kind") == "app" and manifest.app is not None:
        from repro.apps.campaign import AppCampaignConfig

        return AppCampaignConfig.from_manifest(manifest).dataset_array()
    raise RunnerError(
        "this run's manifest does not record a regenerable dataset source; "
        "pass the original data array to resume it"
    )


def resume_campaign(run_dir: str | os.PathLike, data=None, **kwargs) -> CampaignResult:
    """Finish a partial campaign run directory.

    Loads the manifest, regenerates (or fingerprint-checks) the dataset,
    re-runs only the missing shards, and returns a
    :class:`CampaignResult` bit-identical to an uninterrupted run.
    """
    return CampaignRunner.from_run_dir(run_dir, data, **kwargs).resume()


def run_status(run_dir: str | os.PathLike) -> RunStatus:
    """Inspect a run directory without executing anything.

    When the run was profiled (``telemetry.json`` present), the status
    carries the per-phase time breakdown, surfaced by ``summary()``.
    """
    manifest = load_folded(run_dir)
    missing = tuple(
        bit
        for bit in manifest.completed_bits()
        if not RunManifest.shard_path(run_dir, bit).is_file()
    )
    quarantine = quarantine_dir(run_dir)
    quarantined = tuple(
        sorted(str(p.relative_to(run_dir)) for p in quarantine.iterdir())
        if quarantine.is_dir()
        else ()
    )
    snapshot = load_run_snapshot(run_dir)
    return RunStatus(
        run_dir=str(run_dir),
        target_spec=manifest.target_spec,
        label=manifest.label,
        status=manifest.status,
        shards_total=len(manifest.shards),
        shards_done=len(manifest.completed_bits()),
        trials_total=manifest.trials_total,
        trials_done=manifest.trials_done,
        pending_bits=tuple(manifest.pending_bits()),
        missing_shard_files=missing,
        phase_seconds=snapshot.phase_seconds() if snapshot is not None else None,
        quarantined_files=quarantined,
        executor=manifest.executor,
        cancelled=cancel_requested(run_dir),
        workers=tuple(active_leases(run_dir)),
        fault=manifest.fault,
        app=(manifest.app or {}).get("name"),
    )


