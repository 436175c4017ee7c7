"""Worker-pool plumbing for parallel campaign execution.

The paper runs per-field campaigns "in parallel across different compute
nodes in a cluster" (MPI-style scatter of independent work).  Without a
cluster, the same structure maps onto a process pool: the unit of work
is one bit position's shard of trials, seeds are pre-spawned per bit (so
the parallel result is bit-identical to the serial one, regardless of
worker count or scheduling), and shards are gathered and concatenated in
bit order.

The public entry point is :func:`repro.inject.campaign.run_campaign`
(``jobs=N``), executed by :class:`repro.runner.CampaignRunner` through
its :class:`repro.runner.executors.PoolExecutor`; this module keeps what
the pool needs — the fork initializer that shares the run's shard job
(and the dataset it references) with workers through a module global,
avoiding a per-task pickle of the array — and worker-count resolution.
"""

from __future__ import annotations

import os
import signal
import time
import warnings

import numpy as np

from repro.telemetry import DISABLED, Telemetry, telemetry_scope
from repro.telemetry.core import _reset_process_stack

_WORKER_STATE: dict = {}


def _init_worker(job, telemetry_enabled: bool = False, chaos=None,
                 heartbeat=None) -> None:
    # The job (repro.runner.runner.ShardJob or an app job) is what every
    # shard computes; the fork shares it, and the field store or clean
    # solve it carries, copy-on-write.
    _WORKER_STATE["job"] = job
    _WORKER_STATE["telemetry"] = bool(telemetry_enabled)
    # Chaos fault plan (repro.chaos.FaultPlan) and the heartbeat queue:
    # workers announce claiming/finishing a shard so the parent can tell
    # a hung or dead worker from a queued task and kill + requeue it.
    _WORKER_STATE["chaos"] = chaos
    _WORKER_STATE["heartbeat"] = heartbeat
    # The fork copied the parent's SIGTERM handler (the runner converts
    # SIGTERM to a checkpointing interrupt); in a worker that handler
    # would make Pool.terminate() raise instead of exit and the shutdown
    # would deadlock.  Workers die on SIGTERM like normal processes.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The fork inherited the parent's active collector; recording into it
    # from this process would be silently lost.  Profiled shards collect
    # into a per-task collector in _run_shard_timed and ship snapshots.
    _reset_process_stack(DISABLED)


def _ping(kind: str, bit: int, attempt: int) -> None:
    """Best-effort heartbeat; a dying queue must not fail the shard.

    The queue is a ``SimpleQueue``, so ``put`` writes the pipe before
    returning — a worker that crashes immediately after claiming has
    still told the parent which shard it took.
    """
    heartbeat = _WORKER_STATE.get("heartbeat")
    if heartbeat is None:
        return
    try:
        heartbeat.put((kind, os.getpid(), bit, attempt))
    except Exception:
        pass


def _run_shard_timed(task):
    """Pool task: a shard's records, its compute time, and its telemetry delta.

    ``task`` is ``(bit, trials, seed, attempt)`` with a 0-based attempt.
    When the runner profiles, each task records into a private collector
    and ships the frozen snapshot back with the records; the runner
    merges the deltas shard by shard, so the reduced totals are
    identical to a serial run regardless of worker count or scheduling.

    Heartbeats: the task pings "claim" before computing and "done" after,
    so the parent can distinguish a queued task (no claim yet — never
    timed out) from a claimed one whose worker crashed or hung (claim
    then silence — killed and requeued).  Chaos compute faults fire
    after the claim ping, so even an injected crash leaves the trace a
    real one would.
    """
    bit, trials, seed, attempt = task
    _ping("claim", bit, attempt)
    plan = _WORKER_STATE.get("chaos")
    if plan is not None:
        from repro.chaos import fire_compute_faults

        fire_compute_faults(plan, bit, attempt)
    job = _WORKER_STATE["job"]
    start = time.perf_counter()
    if _WORKER_STATE.get("telemetry"):
        collector = Telemetry()
        with telemetry_scope(collector):
            records = job.compute(bit, trials, seed)
        snapshot = collector.snapshot()
    else:
        records = job.compute(bit, trials, seed)
        snapshot = None
    elapsed = time.perf_counter() - start
    _ping("done", bit, attempt)
    return records, elapsed, snapshot


def default_worker_count(shard_count: int | None = None) -> int:
    """Workers to use when unspecified: CPUs, capped at the shard count.

    ``shard_count`` is the number of shards actually scheduled; when
    given, the result never exceeds it (extra workers would only sit
    idle after paying the fork cost).
    """
    workers = max(os.cpu_count() or 1, 1)
    if shard_count is not None:
        workers = min(workers, max(shard_count, 1))
    return workers


def validate_jobs(jobs: int | None) -> int | None:
    """Reject nonsensical worker counts early.

    ``None`` means "auto" and passes through; anything else must be a
    positive integer (booleans and floats are rejected too — a silent
    ``jobs=True`` is a bug, not a request for one worker).
    """
    if jobs is None:
        return None
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)):
        raise ValueError(f"jobs must be a positive integer or None, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def resolve_worker_count(jobs: int | None, shard_count: int | None = None) -> int:
    """Concrete worker count for a run: validate, auto-size, cap.

    ``None`` auto-sizes via :func:`default_worker_count`; an explicit
    request above the shard count is capped (with a warning) instead of
    silently forking idle workers.
    """
    jobs = validate_jobs(jobs)
    if jobs is None:
        return default_worker_count(shard_count)
    if shard_count is not None and jobs > max(shard_count, 1):
        capped = max(shard_count, 1)
        warnings.warn(
            f"jobs={jobs} exceeds the {shard_count} scheduled shard(s); "
            f"capping at {capped}",
            RuntimeWarning,
            stacklevel=2,
        )
        return capped
    return jobs
