"""The run manifest: everything needed to resume a campaign faithfully.

A run directory looks like::

    run-dir/
      manifest.json             <- this module
      events.jsonl              <- repro.runner.events
      shards/bit-007.csv        <- one TrialRecords CSV per completed shard
      leases/bit-007.done.json  <- the shard's done record (repro.runner.leases)

The manifest pins the campaign *identity* — config, root seed, canonical
format spec, dataset fingerprint, code version — so a resume can refuse
to mix shards from a different campaign, and records per-shard status
plus a SHA-256 content checksum per completed shard, so a resume trusts
nothing it cannot verify.

A shard completes in exactly one way, whichever executor or worker
computed it: :func:`persist_shard_file` lands the CSV and then a done
record holding the writer's checksum is written.  The manifest is not
touched per shard; it is written at run start, at checkpoint, and at
finish, and its shard states are a fold of the done records
(:func:`fold_done_records`).  Every reader — resume, ``campaign
status``/``top``/``verify``, the run report — sees the same fold
(:func:`load_folded`), so a run killed between checkpoints still shows
its true progress.  Manifest writes go through an atomic replace; a
kill mid-write never corrupts the previous manifest.  Shard files that
fail verification are moved to ``shards/quarantine/`` (never silently
deleted) and their shards demoted to pending.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro
from repro.runner.errors import ManifestError
from repro.runner.leases import read_done_records

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
EVENT_LOG_NAME = "events.jsonl"
SHARD_DIR_NAME = "shards"
QUARANTINE_DIR_NAME = "quarantine"

#: Shard lifecycle states recorded in the manifest.
SHARD_PENDING = "pending"
SHARD_COMPLETED = "completed"

#: Run lifecycle states.  A *submitted* run has a manifest and a shard
#: plan but no executing process yet — work-stealing ``campaign worker``
#: processes pick it up through lease files.
RUN_SUBMITTED = "submitted"
RUN_RUNNING = "running"
RUN_INTERRUPTED = "interrupted"
RUN_COMPLETED = "completed"


def dataset_fingerprint(data: np.ndarray) -> str:
    """A stable content hash of the campaign's input array.

    Covers dtype, element count, and raw bytes of the flattened array —
    a resume against different data (same shape, different values)
    fails loudly instead of silently mixing shards.
    """
    flat = np.ascontiguousarray(np.asarray(data).reshape(-1))
    digest = hashlib.sha256()
    digest.update(str(flat.dtype).encode())
    digest.update(str(flat.size).encode())
    digest.update(flat.tobytes())
    return digest.hexdigest()[:16]


def shard_file_name(bit: int) -> str:
    return f"bit-{bit:03d}.csv"


def shard_checksum(path: str | os.PathLike) -> str:
    """SHA-256 hex digest of a shard file's exact bytes.

    Recorded in the shard's done record when it persists and re-verified
    on resume and by ``campaign verify`` — a single flipped bit anywhere
    in the file changes the digest.
    """
    digest = hashlib.sha256()
    with open(Path(path), "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def quarantine_dir(run_dir: str | os.PathLike) -> Path:
    """Where corrupt shard files are preserved for post-mortems."""
    return Path(run_dir) / SHARD_DIR_NAME / QUARANTINE_DIR_NAME


def quarantine_file(run_dir: str | os.PathLike, path: Path) -> Path:
    """Move a corrupt artifact into the quarantine directory.

    The evidence is preserved, never deleted: repeated quarantines of
    the same shard get numeric suffixes instead of overwriting.
    """
    directory = quarantine_dir(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    dest = directory / path.name
    counter = 1
    while dest.exists():
        dest = directory / f"{path.name}.{counter}"
        counter += 1
    os.replace(path, dest)
    return dest


@dataclass
class ShardState:
    """Per-shard bookkeeping persisted in the manifest."""

    bit: int
    trials: int
    status: str = SHARD_PENDING
    attempts: int = 0
    duration: float | None = None
    checksum: str | None = None
    worker: str | None = None

    def to_json(self) -> dict:
        payload = {"bit": self.bit, "trials": self.trials, "status": self.status}
        if self.attempts:
            payload["attempts"] = self.attempts
        if self.duration is not None:
            payload["duration"] = round(self.duration, 6)
        if self.checksum is not None:
            payload["checksum"] = self.checksum
        if self.worker is not None:
            payload["worker"] = self.worker
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ShardState":
        return cls(
            bit=int(payload["bit"]),
            trials=int(payload["trials"]),
            status=payload.get("status", SHARD_PENDING),
            attempts=int(payload.get("attempts", 0)),
            duration=payload.get("duration"),
            checksum=payload.get("checksum"),
            worker=payload.get("worker"),
        )


@dataclass
class RunManifest:
    """Identity + progress of one campaign run directory."""

    target_spec: str
    label: str
    trials_per_bit: int
    bits: tuple[int, ...] | None
    seed: int
    data_fingerprint: str
    data_size: int
    #: Canonical fault-model spec (see :mod:`repro.inject.faultspec`).
    #: Part of the identity when non-default; serialized only when it
    #: differs from ``single`` so pre-fault-dimension manifests are
    #: byte-identical and still load.
    fault: str = "single"
    #: App-campaign payload (solver name, grid, injection schedule,
    #: thresholds) when the run's shards are (iteration, bit) cells in
    #: live solver state instead of value-corruption bits.  ``None`` for
    #: classic value campaigns and omitted from serialization so
    #: existing manifests stay byte-identical.
    app: dict | None = None
    shards: dict[int, ShardState] = field(default_factory=dict)
    dataset: dict | None = None
    status: str = RUN_RUNNING
    #: Which executor last drove (or is meant to drive) this run.  Not
    #: part of the identity: a run may be submitted for work-stealing
    #: workers and later finished by a serial resume, or vice versa.
    executor: str | None = None
    #: Whether the run was submitted with distributed tracing on.  Like
    #: ``executor``, excluded from the identity — it changes only what
    #: side-channel files workers write, never the shard CSV bytes —
    #: but recorded so late-joining standalone workers follow the run's
    #: choice without needing ``REPRO_TRACE`` set on every machine.
    trace: bool = False
    code_version: str = repro.__version__
    created_at: float = 0.0
    version: int = MANIFEST_VERSION

    # -- identity -----------------------------------------------------------

    def identity(self) -> dict:
        """The fields a resume must match exactly.

        ``fault`` joins the identity only when non-default, so identity
        payloads of plain single-flip runs are unchanged from manifests
        written before the fault dimension existed.
        """
        payload = {
            "target_spec": self.target_spec,
            "trials_per_bit": self.trials_per_bit,
            "bits": list(self.bits) if self.bits is not None else None,
            "seed": self.seed,
            "data_fingerprint": self.data_fingerprint,
            "data_size": self.data_size,
        }
        if self.fault != "single":
            payload["fault"] = self.fault
        if self.app is not None:
            payload["app"] = self.app
        return payload

    def mismatches(self, other: "RunManifest") -> list[str]:
        """Human-readable identity differences against another manifest."""
        ours, theirs = self.identity(), other.identity()
        ours.setdefault("fault", "single")
        theirs.setdefault("fault", "single")
        ours.setdefault("app", None)
        theirs.setdefault("app", None)
        return [
            f"{key}: run has {theirs[key]!r}, caller has {ours[key]!r}"
            for key in ours
            if ours[key] != theirs[key]
        ]

    # -- progress -----------------------------------------------------------

    def completed_bits(self) -> list[int]:
        return sorted(b for b, s in self.shards.items() if s.status == SHARD_COMPLETED)

    def pending_bits(self) -> list[int]:
        return sorted(b for b, s in self.shards.items() if s.status != SHARD_COMPLETED)

    @property
    def trials_total(self) -> int:
        return sum(state.trials for state in self.shards.values())

    @property
    def trials_done(self) -> int:
        return sum(
            state.trials for state in self.shards.values() if state.status == SHARD_COMPLETED
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "manifest_version": self.version,
            "status": self.status,
            "executor": self.executor,
            "trace": self.trace,
            "created_at": self.created_at,
            "code_version": self.code_version,
            "target_spec": self.target_spec,
            "label": self.label,
            "config": {
                "trials_per_bit": self.trials_per_bit,
                "bits": list(self.bits) if self.bits is not None else None,
                "seed": self.seed,
                # Omit-when-default keeps pre-fault-dimension manifests
                # byte-identical.
                **({"fault": self.fault} if self.fault != "single" else {}),
                **({"app": self.app} if self.app is not None else {}),
            },
            "data": {
                "fingerprint": self.data_fingerprint,
                "size": self.data_size,
                "source": self.dataset,
            },
            "shards": [self.shards[bit].to_json() for bit in sorted(self.shards)],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RunManifest":
        config = payload["config"]
        data = payload["data"]
        bits = config.get("bits")
        manifest = cls(
            target_spec=payload["target_spec"],
            label=payload.get("label", ""),
            trials_per_bit=int(config["trials_per_bit"]),
            bits=tuple(bits) if bits is not None else None,
            seed=int(config["seed"]),
            data_fingerprint=data["fingerprint"],
            data_size=int(data["size"]),
            fault=config.get("fault", "single"),
            app=config.get("app"),
            dataset=data.get("source"),
            status=payload.get("status", RUN_RUNNING),
            executor=payload.get("executor"),
            trace=bool(payload.get("trace", False)),
            code_version=payload.get("code_version", "unknown"),
            created_at=float(payload.get("created_at", 0.0)),
            version=int(payload.get("manifest_version", MANIFEST_VERSION)),
        )
        for entry in payload.get("shards", []):
            state = ShardState.from_json(entry)
            manifest.shards[state.bit] = state
        return manifest

    # -- filesystem ---------------------------------------------------------

    def write(self, run_dir: str | os.PathLike) -> None:
        """Atomically (re)write ``manifest.json`` in ``run_dir``."""
        directory = Path(run_dir)
        directory.mkdir(parents=True, exist_ok=True)
        if not self.created_at:
            self.created_at = time.time()
        tmp = directory / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(self.to_json(), indent=2))
        os.replace(tmp, directory / MANIFEST_NAME)

    @classmethod
    def load(cls, run_dir: str | os.PathLike) -> "RunManifest":
        path = Path(run_dir) / MANIFEST_NAME
        if not path.is_file():
            raise FileNotFoundError(f"no campaign run manifest at {path}")
        recovery = (
            "recovery options: restore the manifest from a backup copy, or "
            "delete the run directory and re-run the campaign fresh "
            "(without the manifest's checksums the shard files cannot be "
            "trusted)"
        )
        try:
            payload = json.loads(path.read_bytes().decode("utf-8", errors="strict"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ManifestError(
                f"campaign manifest {path} is corrupt and cannot be parsed "
                f"({error}); {recovery}"
            ) from error
        try:
            return cls.from_json(payload)
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ManifestError(
                f"campaign manifest {path} is malformed "
                f"(missing or invalid field: {error!r}); {recovery}"
            ) from error

    @staticmethod
    def quarantine_dir(run_dir: str | os.PathLike) -> Path:
        return quarantine_dir(run_dir)

    @staticmethod
    def shard_path(run_dir: str | os.PathLike, bit: int) -> Path:
        return Path(run_dir) / SHARD_DIR_NAME / shard_file_name(bit)

    @staticmethod
    def event_log_path(run_dir: str | os.PathLike) -> Path:
        return Path(run_dir) / EVENT_LOG_NAME


def persist_shard_file(run_dir, bit: int, records) -> str:
    """Atomically write one shard CSV; returns its SHA-256 checksum.

    Serialize once, checksum the exact bytes that hit disk, write to a
    temp file, rename into place: a kill at any instant leaves either no
    shard file or a complete one.  The pid-suffixed temp name keeps
    concurrent workers that (pathologically) compute the same shard from
    clobbering each other's temp files — and since shards are
    bit-identical, whichever rename lands last leaves the same bytes.

    After landing, any *other* temp file for this shard is swept: a
    writer SIGKILLed mid-write leaves its ``.tmp-<pid>`` behind, and the
    process that recomputes the shard is the natural janitor (``verify``
    flags unexplained files, so orphans must not linger).  Should the
    swept temp belong to a live concurrent writer instead, that writer's
    own rename finds the temp gone but the shard file present with the
    identical deterministic bytes — which it treats as success.
    """
    path = RunManifest.shard_path(run_dir, bit)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = records.to_csv_string().encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(payload)
    try:
        os.replace(tmp, path)
    except FileNotFoundError:
        if not path.is_file():
            raise  # temp vanished and nobody landed the shard: real loss
    for stale in path.parent.glob(path.name + ".tmp-*"):
        try:
            stale.unlink()
        except OSError:
            pass
    return digest


def fold_done_records(manifest: RunManifest, records: dict[int, dict]) -> RunManifest:
    """The manifest with ``records`` folded in; a pure function.

    Returns a copy in which every planned shard that the manifest still
    has pending but a done record covers is completed, taking its
    checksum, duration, attempts, and worker from the record.  The fold
    only adds completions — a shard the manifest already records stays
    as recorded — so run directories written before done records existed
    fold to themselves.  No file is read or hashed: the checksum is the
    writer's, and it is checked when the shard is loaded.
    """
    shards = {bit: replace(state) for bit, state in manifest.shards.items()}
    for bit, record in records.items():
        state = shards.get(bit)
        if state is None or state.status == SHARD_COMPLETED:
            continue
        state.status = SHARD_COMPLETED
        state.checksum = record.get("checksum") or None
        state.duration = record.get("duration")
        state.attempts = int(record.get("attempts") or 1)
        state.worker = record.get("worker")
    return replace(manifest, shards=shards)


def read_completions(run_dir: str | os.PathLike) -> dict[int, dict]:
    """The run's done records whose shard file is on disk.

    A record whose file is gone (deleted, or moved to quarantine) no
    longer vouches for anything; its shard stays pending and is
    recomputed, which overwrites the record.
    """
    return {
        bit: record
        for bit, record in read_done_records(run_dir).items()
        if RunManifest.shard_path(run_dir, bit).is_file()
    }


def load_folded(run_dir: str | os.PathLike) -> RunManifest:
    """Load the manifest and fold in the done records on disk."""
    return fold_done_records(RunManifest.load(run_dir), read_completions(run_dir))


def fold_run(run_dir: str | os.PathLike) -> RunManifest:
    """Write the folded manifest back to disk; idempotent.

    Used by work-stealing workers when a run finishes and by anything
    else that wants the manifest on disk to catch up with the done
    records.  When no shard remains pending the run status advances to
    completed.  Concurrent folds by racing workers write identical
    manifests (the write is an atomic replace); nothing is written when
    the fold changes nothing.
    """
    manifest = RunManifest.load(run_dir)
    folded = fold_done_records(manifest, read_completions(run_dir))
    if not folded.pending_bits():
        folded.status = RUN_COMPLETED
    if folded.to_json() != manifest.to_json():
        folded.write(run_dir)
    return folded
