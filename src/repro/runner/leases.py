"""Filesystem lease protocol for multi-worker shard execution.

Work-stealing workers coordinate through the run directory alone — no
broker, no sockets — so any process that can see the filesystem can join
a campaign.  The protocol has three artifacts, all under
``<run-dir>/leases/``:

``bit-NNN.lease``
    An exclusive claim on one shard, created with ``O_CREAT | O_EXCL``
    (atomic on POSIX filesystems, including NFS v3+ for local-style
    mounts).  The file's *mtime* is the worker's heartbeat: a
    :class:`LeaseHeartbeat` thread refreshes it while the shard
    computes.  A lease whose mtime is older than the run's
    ``lease_timeout`` is presumed orphaned (worker crashed, was
    SIGKILLed, or lost the filesystem) and may be *stolen*.
``bit-NNN.done.json``
    The shard's done record: trial count, duration, attempts, the shard
    CSV's SHA-256 checksum, and the worker identity.  Every executor
    writes one after landing the shard file — serial and pool runs
    included — and it is the durable record of the shard's completion.
    Nobody writes the shared manifest per shard (concurrent
    read-modify-write would lose updates); the manifest's shard states
    are a fold of these records
    (:func:`repro.runner.manifest.fold_done_records`).
``finalized``
    An ``O_EXCL`` marker electing the single worker that emits the
    ``run_finish`` event, so cooperating workers close the run once.

Stealing is itself race-free: the stealer *renames* the stale lease to
a unique name first — only one of several concurrent stealers wins the
rename (the losers get ``FileNotFoundError``) — then re-claims through
the normal ``O_EXCL`` path.

A ``CANCELLED`` sentinel at the run-directory root asks every worker to
stop claiming and exit (``campaign cancel``).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

LEASE_DIR_NAME = "leases"
LEASE_SUFFIX = ".lease"
DONE_SUFFIX = ".done.json"
FINALIZED_NAME = "finalized"
CANCEL_NAME = "CANCELLED"

#: Default seconds of heartbeat silence before a lease may be stolen.
DEFAULT_LEASE_TIMEOUT = 30.0

_steal_counter = 0
_steal_lock = threading.Lock()


def default_worker_id() -> str:
    """A worker identity unique across cooperating machines: host-pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


def lease_dir(run_dir: str | os.PathLike) -> Path:
    return Path(run_dir) / LEASE_DIR_NAME


def lease_path(run_dir: str | os.PathLike, bit: int) -> Path:
    return lease_dir(run_dir) / f"bit-{bit:03d}{LEASE_SUFFIX}"


def done_path(run_dir: str | os.PathLike, bit: int) -> Path:
    return lease_dir(run_dir) / f"bit-{bit:03d}{DONE_SUFFIX}"


def cancel_path(run_dir: str | os.PathLike) -> Path:
    return Path(run_dir) / CANCEL_NAME


@dataclass(frozen=True)
class Lease:
    """One successful shard claim, held until released or stolen."""

    bit: int
    worker: str
    path: Path
    stolen_from: str | None = None

    def refresh(self) -> None:
        """Heartbeat: bump the lease file's mtime.

        Missing-file errors are swallowed — if the lease was stolen
        (this worker was presumed dead), the rightful owner's work
        stands and this worker's redundant result is bit-identical
        anyway, so there is nothing useful to do with the failure.
        """
        try:
            os.utime(self.path)
        except OSError:
            pass

    def release(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def read_lease(path: Path) -> dict | None:
    """The lease's claim payload, or None if missing/torn."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None


def lease_age(path: Path) -> float | None:
    """Seconds since the lease last heartbeat, or None if missing."""
    try:
        return max(time.time() - path.stat().st_mtime, 0.0)
    except OSError:
        return None


def _write_exclusive(path: Path, payload: dict) -> bool:
    """Atomically create ``path`` with ``payload``; False if it exists."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return True


def try_claim(
    run_dir: str | os.PathLike,
    bit: int,
    worker: str,
    *,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
) -> Lease | None:
    """Attempt to claim one shard; steal an expired lease if needed.

    Returns the held :class:`Lease` on success (``stolen_from`` set when
    an orphaned claim was taken over) or ``None`` when another worker
    holds a live lease — the caller should move on to the next shard.
    """
    path = lease_path(run_dir, bit)
    payload = {
        "bit": bit,
        "worker": worker,
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "claimed_at": time.time(),
    }
    if _write_exclusive(path, payload):
        return Lease(bit=bit, worker=worker, path=path)

    age = lease_age(path)
    if age is None or age <= lease_timeout:
        return None  # live claim (or claim vanished mid-look; next poll retries)

    # Expired: steal via atomic rename — exactly one stealer wins.
    previous = read_lease(path) or {}
    global _steal_counter
    with _steal_lock:
        _steal_counter += 1
        token = _steal_counter
    stale = path.with_name(f"{path.name}.stale-{os.getpid()}-{token}")
    try:
        os.rename(path, stale)
    except (FileNotFoundError, OSError):
        return None  # lost the steal race (or the owner finished/released)
    try:
        stale.unlink()
    except OSError:
        pass
    if not _write_exclusive(path, payload):
        return None  # a third worker re-claimed between rename and create
    return Lease(
        bit=bit, worker=worker, path=path,
        stolen_from=previous.get("worker", "unknown"),
    )


class LeaseHeartbeat:
    """Background mtime refresh for a held lease, as a context manager.

    ``run_campaign_shard`` is one blocking vectorized call, so the
    heartbeat runs on a daemon thread: while the shard computes, the
    lease's mtime advances and other workers leave it alone.  A worker
    killed mid-compute stops refreshing, the lease ages past the
    timeout, and the shard is stolen — that is the recovery path.
    """

    def __init__(self, lease: Lease, interval: float):
        self.lease = lease
        self.interval = max(interval, 0.01)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread = threading.Thread(target=self._beat, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)

    def _beat(self) -> None:
        while not self._stop.wait(self.interval):
            self.lease.refresh()


def write_done_record(
    run_dir: str | os.PathLike,
    bit: int,
    *,
    trials: int,
    duration: float,
    attempts: int,
    checksum: str,
    worker: str,
) -> Path:
    """Persist a shard's completion record (atomic temp + replace)."""
    path = done_path(run_dir, bit)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "bit": bit,
        "trials": trials,
        "duration": round(duration, 6),
        "attempts": attempts,
        "checksum": checksum,
        "worker": worker,
        "completed_at": time.time(),
    }
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_done_records(run_dir: str | os.PathLike) -> dict[int, dict]:
    """All parseable completion records, keyed by bit."""
    directory = lease_dir(run_dir)
    if not directory.is_dir():
        return {}
    records: dict[int, dict] = {}
    for path in sorted(directory.glob(f"bit-*{DONE_SUFFIX}")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            records[int(payload["bit"])] = payload
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            continue  # torn record: the shard will simply be recomputed
    return records


def active_leases(run_dir: str | os.PathLike) -> list[dict]:
    """Live claims: bit, worker, and heartbeat age, for status displays."""
    directory = lease_dir(run_dir)
    if not directory.is_dir():
        return []
    leases = []
    for path in sorted(directory.glob(f"bit-*{LEASE_SUFFIX}")):
        payload = read_lease(path)
        age = lease_age(path)
        if payload is None or age is None:
            continue
        leases.append({
            "bit": int(payload.get("bit", -1)),
            "worker": str(payload.get("worker", "unknown")),
            "age_seconds": round(age, 3),
        })
    return leases


def try_acquire_finalize(run_dir: str | os.PathLike, worker: str) -> bool:
    """Elect the single worker that emits the run's closing event."""
    return _write_exclusive(
        lease_dir(run_dir) / FINALIZED_NAME,
        {"worker": worker, "finalized_at": time.time()},
    )


def request_cancel(run_dir: str | os.PathLike, reason: str = "") -> Path:
    """Drop the cancellation sentinel every worker polls between claims."""
    path = cancel_path(run_dir)
    path.write_text(
        json.dumps({"cancelled_at": time.time(), "reason": reason}),
        encoding="utf-8",
    )
    return path


def cancel_requested(run_dir: str | os.PathLike) -> bool:
    return cancel_path(run_dir).is_file()
