"""Pluggable campaign executors: the *mechanism* half of the runner.

:class:`repro.runner.CampaignRunner` is policy — planning, manifests,
checksums, resume, verification.  How pending shards actually get
computed is mechanism, and this module owns it behind one interface:

:class:`SerialExecutor`
    In-process, bit order, retry with exponential backoff.
:class:`PoolExecutor`
    The hardened fork pool: heartbeat claims, dead/hung-worker SIGKILL
    and requeue, retry with backoff, in-process fallback when the pool
    itself breaks.
:class:`WorkStealingExecutor`
    Independent worker processes claim shards from the shared run
    directory via atomic lease files (:mod:`repro.runner.leases`);
    additional ``campaign worker`` processes on any machine sharing the
    filesystem can join mid-run, and a killed worker's lease expires
    and is stolen.

Executors see the run only through an :class:`ExecutionContext` — a
narrow facade over the runner that exposes what mechanism needs (shard
compute, completion accounting, event emission, budgets) and nothing
else.  All three produce bit-identical results for a fixed seed because
the per-bit ``SeedSequence.spawn`` streams make shard results
independent of scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.runner.errors import RunnerError
from repro.runner.leases import (
    DEFAULT_LEASE_TIMEOUT,
    LeaseHeartbeat,
    cancel_requested,
    read_done_records,
    try_claim,
)


#: Base of the exponential backoff sleep between attempts of a failing shard.
RETRY_BACKOFF = 0.05


def timed_compute(job, spec):
    """Compute one shard through the run's job: ``(records, duration)``."""
    start = time.perf_counter()
    records = job.compute(spec.bit, spec.trials, spec.seed)
    return records, time.perf_counter() - start


def attempt_shard(spec, compute, *, max_retries: int, chaos, emit, on_retry=None):
    """Compute one shard, retrying failures: ``(records, duration, attempts)``.

    The one in-process attempt loop, shared by the serial executor, the
    work-stealing coordinator, and every :class:`ShardWorker`.  Each
    attempt first fires the chaos plan's compute faults, then calls
    ``compute(spec) -> (records, duration)``.  A failure emits
    ``shard_error``, sleeps an exponential backoff, and emits
    ``shard_retry``; after ``max_retries`` extra attempts it raises
    :class:`RunnerError` chained to the last failure.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            if chaos is not None:
                from repro.chaos import fire_compute_faults

                fire_compute_faults(chaos, spec.bit, attempts - 1)
            records, duration = compute(spec)
            return records, duration, attempts
        except Exception as error:
            emit("shard_error", bit=spec.bit, attempt=attempts - 1, error=repr(error))
            if attempts > max_retries:
                raise RunnerError(
                    f"shard for bit {spec.bit} failed after {attempts} attempt(s)"
                ) from error
            if on_retry is not None:
                on_retry()
            time.sleep(RETRY_BACKOFF * (2 ** (attempts - 1)))
            emit("shard_retry", bit=spec.bit, attempt=attempts, error=repr(error))


def _pid_alive(pid: int) -> bool:
    """Whether a process still exists (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class ExecutionContext:
    """What an executor may see and do during one run.

    Bound to a live :class:`CampaignRunner`; attribute reads delegate so
    test seams (e.g. monkeypatching ``CampaignRunner._compute_shard``)
    keep working, and completion accounting flows through the runner's
    one completion path (atomic shard write, done record with the
    writer's checksum, events) no matter which executor drives it.
    """

    def __init__(self, runner, hooks, shards_total: int, trials_total: int):
        self._runner = runner
        self._hooks = hooks
        self.shards_total = shards_total
        self.trials_total = trials_total

    # -- static facts about the run ----------------------------------------

    @property
    def run_dir(self):
        return self._runner.run_dir

    @property
    def jobs(self) -> int:
        return self._runner._effective_jobs

    @property
    def job(self):
        """What every shard of this run computes (crosses forks as-is)."""
        return self._runner.job

    @property
    def max_retries(self) -> int:
        return self._runner.max_retries

    @property
    def heartbeat_timeout(self) -> float | None:
        return self._runner.heartbeat_timeout

    @property
    def chaos(self):
        return self._runner.chaos

    @property
    def telemetry(self):
        return self._runner.telemetry

    @property
    def worker_id(self) -> str:
        """This process's identity in done records and lease claims."""
        return self._runner._worker_id

    @property
    def trace_enabled(self) -> bool:
        """Whether this run is writing distributed-trace spans."""
        return self._runner._trace is not None

    # -- actions ------------------------------------------------------------

    def compute(self, spec):
        """Compute one shard in-process: ``(records, duration)``."""
        return self._runner._compute_shard(spec)

    def finish(self, spec, records, duration: float, attempts: int) -> None:
        """Account a locally computed shard: shard file, done record, emit."""
        self._runner._finish_shard(
            spec, records, duration, attempts, self._hooks,
            self.shards_total, self.trials_total,
        )

    def adopt(self, spec, record: dict) -> None:
        """Account a shard completed by a cooperating worker process."""
        self._runner._adopt_shard(
            spec, record, self._hooks, self.shards_total, self.trials_total
        )

    def emit(self, kind: str, **kwargs) -> None:
        self._runner._emit(
            self._hooks, kind,
            shards_total=self.shards_total, trials_total=self.trials_total,
            **kwargs,
        )

    def attempt(self, spec):
        """Compute one shard in-process through the shared attempt loop."""
        return attempt_shard(spec, self.compute, max_retries=self.max_retries,
                             chaos=self.chaos, emit=self.emit,
                             on_retry=self.note_retry)

    def note_retry(self) -> None:
        self._runner._retry_count += 1

    def note_hung(self) -> None:
        self._runner._hung_count += 1


class Executor:
    """Base class: one strategy for executing a run's pending shards."""

    #: Registry key and the name recorded in the manifest.
    name = "abstract"

    def execute(self, pending, ctx: ExecutionContext) -> None:
        """Complete every pending shard (``ctx.finish``/``ctx.adopt``).

        Raising fails the run (the runner checkpoints it interrupted);
        returning with shards unaccounted is a bug, not a contract.
        """
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process execution in bit order with retry + backoff."""

    name = "serial"

    def execute(self, pending, ctx: ExecutionContext) -> None:
        for spec in pending:
            ctx.emit("shard_start", bit=spec.bit)
            records, duration, attempts = ctx.attempt(spec)
            ctx.finish(spec, records, duration, attempts)


class _ShardRun:
    """Pool-side bookkeeping for one in-flight shard."""

    __slots__ = ("future", "failures", "claimed", "pid", "done")

    def __init__(self):
        self.future = None
        self.failures = 0
        self.claimed: float | None = None
        self.pid: int | None = None
        self.done = False


class PoolExecutor(Executor):
    """Fork-pool execution that survives sick workers.

    Instead of blocking on each future in bit order, a polling loop
    collects results as they complete while a heartbeat queue tracks
    which worker claimed which shard and when.  That lets the parent
    distinguish three states a blocking design conflates: queued (no
    claim — never times out), computing (claimed, worker alive, within
    budget), and lost (worker dead, or claimed longer than
    ``heartbeat_timeout``).  Lost shards get their
    worker SIGKILLed and re-enter the normal retry path, so a crashed
    or hung worker costs one retry, not the run.
    """

    name = "pool"

    @staticmethod
    def _kill_worker(pid: int | None) -> bool:
        """SIGKILL a stalled pool worker; the pool respawns a replacement."""
        if pid is None:
            return False
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def execute(self, pending, ctx: ExecutionContext) -> None:
        from repro.inject.parallel import _init_worker, _run_shard_timed

        context = multiprocessing.get_context("fork")
        # Created unconditionally: workers ping "claim"/"done" through it
        # (inherited across the fork via the pool initializer args).  A
        # SimpleQueue, not a Queue: its put() writes the pipe
        # synchronously, so a worker that crashes (os._exit) right after
        # claiming has still delivered the claim — a buffered Queue's
        # feeder thread would die with the worker and lose it, leaving
        # the shard looking queued forever.
        heartbeats = context.SimpleQueue()
        specs = {spec.bit: spec for spec in pending}
        runs: dict[int, _ShardRun] = {}
        pool_broken = False

        def submit(bit: int) -> None:
            run = runs[bit]
            spec = specs[bit]
            run.claimed = None
            run.pid = None
            run.done = False
            # The attempt id rides along so pings from a killed earlier
            # attempt cannot be mistaken for the live one.
            run.future = pool.apply_async(
                _run_shard_timed,
                ((spec.bit, spec.trials, spec.seed, run.failures),),
            )

        def fallback(bit: int) -> None:
            # Degrade gracefully: the pool failed this shard (or died);
            # recompute in-process rather than lose the run.
            run = runs.pop(bit)
            ctx.emit("shard_fallback", bit=bit, attempt=run.failures,
                     error="pool execution failed; running in-process")
            records, duration = ctx.compute(specs[bit])
            ctx.finish(specs[bit], records, duration, run.failures + 1)

        def fail(bit: int, error: BaseException) -> None:
            nonlocal pool_broken
            run = runs[bit]
            run.failures += 1
            run.future = None
            ctx.emit("shard_error", bit=bit, attempt=run.failures - 1,
                     error=repr(error))
            if run.failures > ctx.max_retries:
                fallback(bit)
                return
            ctx.note_retry()
            time.sleep(RETRY_BACKOFF * (2 ** (run.failures - 1)))
            try:
                submit(bit)
            except Exception:
                pool_broken = True
                return
            ctx.emit("shard_retry", bit=bit, attempt=run.failures,
                     error=repr(error))

        def drain_heartbeats() -> None:
            while True:
                try:
                    if heartbeats.empty():
                        return
                    kind, pid, bit, attempt = heartbeats.get()
                except (OSError, EOFError):
                    return
                run = runs.get(bit)
                if run is None or attempt != run.failures:
                    continue  # ping from a superseded or finished attempt
                if kind == "claim":
                    run.claimed = time.monotonic()
                    run.pid = pid
                elif kind == "done":
                    run.done = True

        def reap_stalled() -> None:
            now = time.monotonic()
            for bit in sorted(runs):
                run = runs.get(bit)
                if (run is None or run.future is None or run.done
                        or run.future.ready() or run.claimed is None):
                    continue
                age = now - run.claimed
                reason = None
                if run.pid is not None and not _pid_alive(run.pid):
                    reason = f"worker pid {run.pid} died mid-shard"
                elif (ctx.heartbeat_timeout is not None
                        and age > ctx.heartbeat_timeout):
                    reason = (f"claimed {age:.1f}s ago with no completion "
                              f"(heartbeat_timeout={ctx.heartbeat_timeout:g}s)")
                if reason is None:
                    continue
                ctx.note_hung()
                ctx.telemetry.count("runner.shards_hung")
                if self._kill_worker(run.pid):
                    ctx.telemetry.count("runner.workers_killed")
                ctx.emit("shard_hung", bit=bit, attempt=run.failures,
                         error=reason,
                         detail={"pid": run.pid, "claimed_age": round(age, 3)})
                fail(bit, RunnerError(f"shard bit={bit} hung: {reason}"))
                if pool_broken:
                    return

        try:
            with context.Pool(
                processes=ctx.jobs,
                initializer=_init_worker,
                initargs=(ctx.job, ctx.telemetry.enabled, ctx.chaos, heartbeats),
            ) as pool:
                for spec in pending:
                    runs[spec.bit] = _ShardRun()
                    submit(spec.bit)
                    ctx.emit("shard_start", bit=spec.bit)
                while runs and not pool_broken:
                    drain_heartbeats()
                    progressed = False
                    for bit in sorted(runs):
                        run = runs.get(bit)
                        if run is None or run.future is None or not run.future.ready():
                            continue
                        progressed = True
                        try:
                            records, duration, worker_snapshot = run.future.get()
                        except Exception as error:
                            fail(bit, error)
                            if pool_broken:
                                break
                            continue
                        if worker_snapshot is not None:
                            ctx.telemetry.merge_snapshot(worker_snapshot)
                        runs.pop(bit)
                        ctx.finish(specs[bit], records, duration, run.failures + 1)
                    if pool_broken:
                        break
                    reap_stalled()
                    if runs and not pool_broken and not progressed:
                        time.sleep(0.01)
                for bit in sorted(runs):
                    fallback(bit)
        finally:
            heartbeats.close()


def _work_stealing_child(run_dir, job, seeds, max_retries, lease_timeout,
                         poll_interval, chaos, telemetry_enabled=False,
                         trace_enabled=False) -> None:
    """Entry point of a forked in-run work-stealing worker.

    The job (and the field store or clean solve it carries) arrives
    by fork copy-on-write, never pickled, together with the run's seeds and
    attempt budget.  SIGTERM and the inherited telemetry collector are
    reset exactly like :func:`repro.inject.parallel._init_worker` — the
    fork copied the parent's checkpointing SIGTERM handler and active
    collector, and neither belongs in a child.  When the parent
    profiles/traces, the child gets its *own* collector (its snapshot
    lands beside its done records for the merge-at-read path, never
    double-counted into the parent's) and its own trace/metrics files.
    """
    from repro.runner.worker import ShardWorker
    from repro.telemetry import DISABLED
    from repro.telemetry.core import _reset_process_stack

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _reset_process_stack(DISABLED)
    try:
        ShardWorker(
            run_dir,
            job=job,
            seeds=seeds,
            max_retries=max_retries,
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            chaos=chaos,
            finalize=False,
            telemetry=bool(telemetry_enabled),
            trace=bool(trace_enabled),
        ).run()
    except Exception:
        # The child is expendable: the coordinator steals its leases and
        # recomputes anything it failed to deliver.  Exiting nonzero is
        # the only signal it leaves.
        os._exit(1)


class WorkStealingExecutor(Executor):
    """Cooperating processes claim shards via run-directory lease files.

    The calling (coordinator) process is itself one worker: it claims
    and computes shards through the runner's normal completion path and
    is the *only* process that writes the manifest.  ``workers - 1``
    forked children run :class:`repro.runner.worker.ShardWorker` loops:
    each claims a lease, computes, writes the shard CSV + a done record
    under ``leases/`` (the same completion path), and appends its own
    events.  The coordinator *adopts* children's shards by loading them
    (checksum-verified against their done records) into the run's
    result; the manifest picks them up at the runner's finish fold, so
    concurrent manifest writes never happen.

    Because claims go through the shared filesystem, external
    ``campaign worker <run-dir>`` processes — on this machine or any
    other sharing the filesystem — can join the same run at any time.
    A worker that dies mid-shard stops refreshing its lease's mtime;
    after ``lease_timeout`` the lease is stolen and the shard recomputed
    (bit-identically, thanks to per-bit seed streams).
    """

    name = "work-stealing"

    def __init__(self, workers: int | None = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 poll_interval: float = 0.05):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        self.workers = workers
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)

    def execute(self, pending, ctx: ExecutionContext) -> None:
        if ctx.run_dir is None:
            raise RunnerError(
                "the work-stealing executor coordinates through lease files "
                "in the run directory; pass run_dir= (or use the serial/pool "
                "executor for in-memory runs)"
            )
        run_dir = ctx.run_dir
        worker_id = ctx.worker_id
        workers = self.workers if self.workers is not None else ctx.jobs
        seeds = {spec.bit: spec.seed for spec in pending}
        context = multiprocessing.get_context("fork")
        children = [
            context.Process(
                target=_work_stealing_child,
                args=(run_dir, ctx.job, seeds, ctx.max_retries,
                      self.lease_timeout, self.poll_interval, ctx.chaos,
                      ctx.telemetry.enabled, ctx.trace_enabled),
                daemon=True,
            )
            for _ in range(max(workers - 1, 0))
        ]
        for child in children:
            child.start()

        remaining = {spec.bit: spec for spec in pending}
        try:
            while remaining:
                if cancel_requested(run_dir):
                    raise RunnerError(
                        f"run cancelled (CANCELLED sentinel in {run_dir})"
                    )
                done = read_done_records(run_dir)
                progressed = False
                for bit in sorted(remaining):
                    spec = remaining[bit]
                    record = done.get(bit)
                    if record is not None:
                        if record.get("worker") != worker_id:
                            ctx.adopt(spec, record)
                            ctx.telemetry.count("runner.shards_adopted")
                        remaining.pop(bit)
                        progressed = True
                        continue
                    lease = try_claim(run_dir, bit, worker_id,
                                      lease_timeout=self.lease_timeout)
                    if lease is None:
                        continue  # another worker holds it; revisit next sweep
                    # Re-check done records *after* claiming, exactly like
                    # ShardWorker: the sweep-start read goes stale while
                    # earlier bits in this sweep compute, and a cooperating
                    # worker may have finished (and released) this bit in
                    # the meantime.  Done records are written before lease
                    # release, so a post-claim re-check is race-free —
                    # without it the coordinator silently recomputes
                    # already-finished shards (bit-identical, but wasted
                    # work that breaks N-worker telemetry counter identity).
                    record = read_done_records(run_dir).get(bit)
                    if record is not None:
                        lease.release()
                        if record.get("worker") != worker_id:
                            ctx.adopt(spec, record)
                            ctx.telemetry.count("runner.shards_adopted")
                        remaining.pop(bit)
                        progressed = True
                        continue
                    progressed = True
                    ctx.telemetry.count("runner.leases_claimed")
                    detail = {"worker": worker_id}
                    if lease.stolen_from:
                        ctx.telemetry.count("runner.leases_stolen")
                        ctx.emit("lease_stolen", bit=bit,
                                 detail={"worker": worker_id,
                                         "stolen_from": lease.stolen_from},
                                 error=f"lease of {lease.stolen_from} expired")
                    ctx.emit("shard_claimed", bit=bit, detail=detail)
                    try:
                        with LeaseHeartbeat(lease, self.lease_timeout / 3.0):
                            records, duration, attempts = ctx.attempt(spec)
                    except BaseException:
                        lease.release()
                        raise
                    ctx.finish(spec, records, duration, attempts)
                    lease.release()
                    remaining.pop(bit)
                if remaining and not progressed:
                    time.sleep(self.poll_interval)
        finally:
            deadline = time.monotonic() + max(self.lease_timeout, 5.0)
            for child in children:
                child.join(timeout=max(deadline - time.monotonic(), 0.1))
                if child.is_alive():
                    child.terminate()
                    child.join(timeout=1.0)


#: Executor registry: the ``--executor`` CLI choices and the
#: ``run_campaign(executor=...)`` string spellings.
EXECUTOR_REGISTRY: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    PoolExecutor.name: PoolExecutor,
    WorkStealingExecutor.name: WorkStealingExecutor,
}


def resolve_executor(spec, *, jobs: int = 1, pending: int = 0) -> Executor:
    """Turn an executor request into a concrete :class:`Executor`.

    ``None`` keeps the historical auto policy: in-process when a single
    worker (or at most one pending shard) makes a pool pointless,
    otherwise the hardened fork pool.  Strings go through
    :data:`EXECUTOR_REGISTRY`; instances pass through untouched.
    """
    if spec is None:
        if jobs <= 1 or pending <= 1:
            return SerialExecutor()
        return PoolExecutor()
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, str):
        try:
            cls = EXECUTOR_REGISTRY[spec]
        except KeyError:
            known = ", ".join(sorted(EXECUTOR_REGISTRY))
            raise ValueError(
                f"unknown executor {spec!r}; known executors: {known}"
            ) from None
        return cls()
    raise TypeError(
        f"executor must be None, a registry name, or an Executor instance; "
        f"got {type(spec).__name__}"
    )
