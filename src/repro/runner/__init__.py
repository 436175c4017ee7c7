"""Resumable campaign execution: plans, shards, manifests, events.

The runner is the single execution engine behind every campaign entry
point (``repro.inject.run_campaign``, suites, experiments, the CLI).  It
turns a campaign into a plan of per-bit *shards*, hands them to a
pluggable :class:`Executor` (serial, process pool, or lease-based
work-stealing across independent processes — see
:mod:`repro.runner.executors`), persists each completed shard plus its
done record under a run directory (the JSON manifest is their fold,
written at start, checkpoint, and finish), emits observable events (hooks, a
terminal progress renderer, a JSONL event log), retries failed shards
with backoff, and can resume a partial run to a result bit-identical to
an uninterrupted one.  The runner is *policy* (planning, persistence,
verification, events); executors are *mechanism* (how pending shards
get computed), and :mod:`repro.runner.worker` lets standalone
``campaign worker`` processes cooperate on a submitted run through
atomic lease files.

Hardening (see ``docs/robustness.md``): shard files are written
atomically and carry SHA-256 checksums verified on resume (corrupt
files are quarantined under ``shards/quarantine/``, never trusted),
pool workers heartbeat so hung or dead workers are killed and their
shards requeued, SIGTERM checkpoints like Ctrl-C, and
:func:`verify_run` audits a run directory end to end.
"""

from repro.runner.errors import ManifestError, RunnerError, SignalInterrupt
from repro.runner.events import (
    EventLogWriter,
    ProgressRenderer,
    RunnerEvent,
    RunnerHooks,
    close_hooks,
    read_event_log,
)
from repro.runner.executors import (
    EXECUTOR_REGISTRY,
    ExecutionContext,
    Executor,
    PoolExecutor,
    SerialExecutor,
    WorkStealingExecutor,
    resolve_executor,
)
from repro.runner.leases import (
    active_leases,
    cancel_requested,
    default_worker_id,
    read_done_records,
    request_cancel,
)
from repro.runner.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    RunManifest,
    ShardState,
    dataset_fingerprint,
    fold_run,
    quarantine_dir,
    shard_checksum,
)
from repro.runner.runner import (
    CampaignRunner,
    RunStatus,
    ShardSpec,
    resume_campaign,
    run_status,
)
from repro.runner.verify import Finding, VerifyReport, verify_run
from repro.runner.worker import ShardWorker, WorkerResult, run_worker

__all__ = [
    "CampaignRunner",
    "EXECUTOR_REGISTRY",
    "EventLogWriter",
    "ExecutionContext",
    "Executor",
    "Finding",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ManifestError",
    "PoolExecutor",
    "ProgressRenderer",
    "RunManifest",
    "RunStatus",
    "RunnerError",
    "RunnerEvent",
    "RunnerHooks",
    "SerialExecutor",
    "ShardSpec",
    "ShardState",
    "ShardWorker",
    "SignalInterrupt",
    "VerifyReport",
    "WorkStealingExecutor",
    "WorkerResult",
    "active_leases",
    "cancel_requested",
    "close_hooks",
    "dataset_fingerprint",
    "default_worker_id",
    "fold_run",
    "quarantine_dir",
    "read_event_log",
    "request_cancel",
    "resolve_executor",
    "resume_campaign",
    "run_status",
    "run_worker",
    "shard_checksum",
    "verify_run",
]
