"""The work-stealing shard worker: ``campaign worker <run-dir>``.

A :class:`ShardWorker` is one independent process cooperating on a
submitted campaign through the shared run directory alone.  Its loop:

1. read the manifest (identity, shard plan) and the completions: done
   records under ``leases/`` whose shard file is on disk
   (:func:`repro.runner.manifest.read_completions`);
2. claim a still-pending shard via an atomic lease file
   (:func:`repro.runner.leases.try_claim`), stealing expired leases
   from dead workers;
3. compute the shard through the run's shard job and the attempt loop
   every executor shares (:func:`repro.runner.executors.attempt_shard`;
   bit-identical regardless of which worker runs it, thanks to per-bit
   ``SeedSequence.spawn`` streams), write the shard
   CSV and its done record through the one completion path every
   executor shares (:func:`repro.runner.manifest.persist_shard_file`,
   then the done record), append its events to ``events.jsonl``,
   release the lease;
4. when every shard has a done record, fold them into the manifest
   (:func:`repro.runner.manifest.fold_run`) and — if it wins the
   one-shot ``finalized`` marker — emit the closing ``run_finish`` event.

Workers never write the manifest during execution (concurrent
read-modify-write would lose shards); the fold derives the manifest's
shard states purely from the done records, so folding is idempotent and
any worker (or a later ``campaign resume``) can do it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.runner.errors import RunnerError
from repro.runner.events import EventLogWriter, RunnerEvent, dispatch_event
from repro.runner.executors import attempt_shard, timed_compute
from repro.runner.leases import (
    DEFAULT_LEASE_TIMEOUT,
    LeaseHeartbeat,
    active_leases,
    cancel_requested,
    default_worker_id,
    try_acquire_finalize,
    try_claim,
    write_done_record,
)
from repro.runner.manifest import (
    RUN_COMPLETED,
    RUN_RUNNING,
    RunManifest,
    fold_run,
    persist_shard_file,
    read_completions,
)
from repro.runner.observe import TraceSession, open_trace_session
from repro.runner.runner import CampaignRunner, ShardSpec
from repro.telemetry import resolve_collector, telemetry_scope, write_worker_snapshot


@dataclass(frozen=True)
class WorkerResult:
    """What one worker's run() accomplished."""

    worker: str
    claims: int
    stolen: int
    status: str  # "completed" | "cancelled" | "idle"
    finalized: bool = False


class ShardWorker:
    """One cooperating worker process for a submitted campaign.

    Parameters
    ----------
    run_dir:
        The shared run directory (manifest + leases + shards + events).
    worker_id:
        Identity recorded in leases, done records, and events; defaults
        to ``<hostname>-<pid>``.
    job / seeds:
        The run's shard job and per-shard seeds — passed together by the
        in-run executor whose fork already holds them.  When omitted
        (the standalone ``campaign worker`` path) both come from
        :meth:`CampaignRunner.from_run_dir`, which regenerates the
        dataset from the manifest's recorded provenance (value and app
        campaigns alike).
    lease_timeout:
        Seconds of heartbeat silence before another worker's lease is
        presumed orphaned and stolen.
    poll_interval:
        Sleep between sweeps when nothing was claimable.
    max_claims:
        Stop after claiming this many shards (None = unlimited).
    max_idle_seconds:
        Give up after this long without any observable progress across
        the whole run (None = wait forever).  Returns ``status="idle"``.
    max_retries:
        Per-shard in-worker retry budget, as in the runner.
    chaos:
        Optional fault plan fired before each compute attempt (in-run
        children inherit the runner's plan across the fork).
    finalize:
        Fold + finalize when the run completes.  The in-run executor's
        children pass False — the process that forked them owns the
        manifest.
    hooks:
        Optional extra event consumers (beyond the events.jsonl append).
    telemetry:
        Profiling control (:func:`repro.telemetry.resolve_collector`).
        When enabled, this worker's snapshot is written to
        ``telemetry-workers/<worker>.json`` beside its done records on
        exit, where ``load_run_snapshot`` / ``telemetry report`` merge
        it with every other worker's — restoring the jobs=1 ≡ N-worker
        counter identity for distributed runs.
    trace:
        Distributed tracing + metrics control: ``None`` follows
        ``REPRO_TRACE`` and then the manifest's recorded flag (so a
        ``campaign submit --trace`` run is traced by every worker that
        joins it), booleans force it.
    """

    def __init__(
        self,
        run_dir,
        *,
        worker_id: str | None = None,
        job=None,
        seeds: dict | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = 0.2,
        max_claims: int | None = None,
        max_idle_seconds: float | None = None,
        max_retries: int = 2,
        chaos=None,
        finalize: bool = True,
        hooks=None,
        telemetry=None,
        trace=None,
    ):
        if (job is None) != (seeds is None):
            raise ValueError("pass job and seeds together, or neither")
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        self.run_dir = Path(run_dir)
        self.worker_id = worker_id or default_worker_id()
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.max_claims = max_claims
        self.max_idle_seconds = max_idle_seconds
        self.max_retries = int(max_retries)
        self.chaos = chaos
        self.finalize = finalize
        if hooks is None:
            hooks = []
        elif not isinstance(hooks, (list, tuple)):
            hooks = [hooks]
        self.hooks = list(hooks)
        self.job = job
        self.seeds = seeds
        self._failed: set[int] = set()
        self._started = 0.0
        self.telemetry = resolve_collector(telemetry)
        self._trace_arg = trace
        self._trace: TraceSession | None = None
        self._my_claims = 0
        self._my_trials = 0

    # -- setup --------------------------------------------------------------

    def _load(self) -> RunManifest:
        manifest = RunManifest.load(self.run_dir)
        if manifest.status == RUN_RUNNING and manifest.executor not in (
            None, "work-stealing",
        ):
            raise RunnerError(
                f"run {self.run_dir} is executing under the "
                f"{manifest.executor!r} executor, which does not coordinate "
                "through leases; a work-stealing worker cannot join it"
            )
        if self.job is None:
            runner = CampaignRunner.from_run_dir(self.run_dir, telemetry=self.telemetry)
            self.job = runner.job
            self.seeds = {spec.bit: spec.seed for spec in runner.plan()}
        return manifest

    # -- events -------------------------------------------------------------

    def _emit(self, log, kind: str, *, bit: int | None = None, attempt: int = 0,
              shards_done: int = 0, shards_total: int = 0,
              trials_done: int = 0, trials_total: int = 0,
              error: str | None = None, detail: dict | None = None) -> None:
        detail = dict(detail or {})
        detail.setdefault("worker", self.worker_id)
        event = RunnerEvent(
            kind=kind,
            elapsed=round(max(time.monotonic() - self._started, 0.0), 6),
            bit=bit,
            attempt=attempt,
            shards_done=shards_done,
            shards_total=shards_total,
            trials_done=trials_done,
            trials_total=trials_total,
            error=error,
            trace_id=self._trace.context.trace_id if self._trace else None,
            detail=detail,
        )
        for hook in [log, *self.hooks]:
            dispatch_event(hook, event)

    # -- the loop -----------------------------------------------------------

    def run(self) -> WorkerResult:
        """Claim, compute, and record shards until the run is done.

        Observability wraps — never alters — the claim loop: the
        worker's own telemetry collector is scoped around it, its
        snapshot lands beside the done records on exit, and when the run
        is traced this worker appends spans and time-series points to
        its own files under ``trace/`` and ``metrics/``.
        """
        self._started = time.monotonic()
        result: WorkerResult | None = None
        try:
            with telemetry_scope(self.telemetry):
                manifest = self._load()
                self._trace = open_trace_session(
                    self._trace_arg, manifest, self.run_dir, self.worker_id,
                    self.telemetry,
                    lambda: {"trials_done": self._my_trials,
                             "shards_done": self._my_claims},
                )
                result = self._run_loop(manifest)
                return result
        finally:
            if self.telemetry.enabled:
                snapshot = self.telemetry.snapshot()
                if not snapshot.empty:
                    write_worker_snapshot(snapshot, self.run_dir, self.worker_id)
            if self._trace is not None:
                self._trace.close({
                    "role": "standalone" if self.finalize else "forked",
                    "claims": result.claims if result else self._my_claims,
                    "status": result.status if result else "error",
                })
                self._trace = None

    def _run_loop(self, manifest: RunManifest) -> WorkerResult:
        shards_total = len(manifest.shards)
        trials_total = manifest.trials_total
        already = set(manifest.completed_bits())
        claims = 0
        stolen = 0
        status = "completed"
        finalized = False
        last_progress = time.monotonic()
        last_seen_done = -1

        with EventLogWriter(RunManifest.event_log_path(self.run_dir)) as log:
            self._emit(log, "worker_start", shards_total=shards_total,
                       trials_total=trials_total,
                       detail={"pid": os.getpid(),
                               "lease_timeout": self.lease_timeout})
            while True:
                if cancel_requested(self.run_dir):
                    status = "cancelled"
                    break
                done = read_completions(self.run_dir)
                done_bits = already | set(done)
                remaining = [b for b in sorted(manifest.shards)
                             if b not in done_bits]
                if not remaining:
                    break
                if len(done_bits) != last_seen_done:
                    last_seen_done = len(done_bits)
                    last_progress = time.monotonic()
                claimable = [b for b in remaining if b not in self._failed]
                if not claimable and not active_leases(self.run_dir):
                    raise RunnerError(
                        f"worker {self.worker_id} exhausted retries on bit(s) "
                        f"{sorted(self._failed)} and no other worker holds "
                        "a lease on them"
                    )
                progressed = False
                for bit in claimable:
                    if self.max_claims is not None and claims >= self.max_claims:
                        break
                    lease = try_claim(self.run_dir, bit, self.worker_id,
                                      lease_timeout=self.lease_timeout)
                    if lease is None:
                        continue
                    if bit in read_completions(self.run_dir):
                        lease.release()  # finished between our scan and claim
                        continue
                    progressed = True
                    last_progress = time.monotonic()
                    counts = {"shards_done": len(done_bits),
                              "shards_total": shards_total,
                              "trials_done": sum(
                                  manifest.shards[b].trials for b in done_bits),
                              "trials_total": trials_total}
                    if lease.stolen_from:
                        stolen += 1
                        self._emit(log, "lease_stolen", bit=bit,
                                   error=f"lease of {lease.stolen_from} expired",
                                   detail={"stolen_from": lease.stolen_from},
                                   **counts)
                    self._emit(log, "shard_claimed", bit=bit, **counts)
                    spec = ShardSpec(bit=bit, trials=manifest.shards[bit].trials,
                                     seed=self.seeds[bit])
                    outcome = self._run_shard(log, lease, spec, counts)
                    lease.release()
                    if outcome:
                        claims += 1
                if self.max_claims is not None and claims >= self.max_claims:
                    status = "idle"
                    break
                if not progressed:
                    if (self.max_idle_seconds is not None
                            and time.monotonic() - last_progress
                            > self.max_idle_seconds):
                        status = "idle"
                        break
                    time.sleep(self.poll_interval)

            if status == "completed" and self.finalize:
                folded = fold_run(self.run_dir)
                if (folded.status == RUN_COMPLETED
                        and try_acquire_finalize(self.run_dir, self.worker_id)):
                    finalized = True
                    self._emit(log, "run_finish",
                               shards_done=len(folded.completed_bits()),
                               shards_total=shards_total,
                               trials_done=folded.trials_done,
                               trials_total=trials_total,
                               detail={"finalized_by": self.worker_id})
            self._emit(log, "worker_exit", shards_total=shards_total,
                       trials_total=trials_total,
                       detail={"claims": claims, "stolen": stolen,
                               "status": status, "finalized": finalized})
        return WorkerResult(worker=self.worker_id, claims=claims,
                            stolen=stolen, status=status, finalized=finalized)

    def _run_shard(self, log, lease, spec: ShardSpec, counts) -> bool:
        """Compute + persist one claimed shard; False if retries exhausted."""
        bit = spec.bit
        with LeaseHeartbeat(lease, self.lease_timeout / 3.0):
            try:
                records, duration, attempts = attempt_shard(
                    spec, lambda spec: timed_compute(self.job, spec),
                    max_retries=self.max_retries, chaos=self.chaos,
                    emit=lambda kind, **kwargs: self._emit(log, kind, **kwargs, **counts),
                )
            except RunnerError:
                # Leave the shard for a healthier worker; only if nobody
                # else can take it does the claim loop raise.
                self._failed.add(bit)
                return False
            checksum = persist_shard_file(self.run_dir, bit, records)
            write_done_record(
                self.run_dir, bit,
                trials=len(records), duration=duration, attempts=attempts,
                checksum=checksum, worker=self.worker_id,
            )
            self._my_claims += 1
            self._my_trials += len(records)
            if self._trace is not None:
                self._trace.writer.shard_span(
                    bit=bit,
                    attempt=attempts - 1,
                    ts=time.time() - duration,
                    duration=duration,
                    args={"trials": len(records)},
                )
            self._emit(log, "shard_finish", bit=bit, attempt=attempts - 1,
                       detail={"duration": round(duration, 6)},
                       **{**counts, "shards_done": counts["shards_done"] + 1,
                          "trials_done": counts["trials_done"] + len(records)})
        return True


def run_worker(run_dir, **kwargs) -> WorkerResult:
    """Convenience wrapper: construct and run one :class:`ShardWorker`."""
    return ShardWorker(run_dir, **kwargs).run()
