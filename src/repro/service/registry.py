"""The run registry: named, project-scoped campaign runs under one home.

A *registered* run is an ordinary campaign run directory (manifest,
shards, events — everything ``repro.runner`` writes) that additionally
lives under the service's ``runs_dir`` and has a row in ``index.json``::

    runs/
      index.json                 <- {"runs": {run_id: entry}, "next": N}
      default/posit16-0001/      <- <project>/<run_id>/ run directory

``RunRegistry.submit`` allocates a run directory, hands it to a
caller-built runner (a value campaign over a dataset preset, an app
campaign, anything that is a :class:`repro.runner.CampaignRunner`), and
has the runner write its manifest in *submitted* state
(:meth:`repro.runner.CampaignRunner.submit`) without computing
anything; any number of ``campaign worker`` processes — on any machine
that mounts the same filesystem — then claim shards through lease files
until the run completes.  The registry only ever records pointers and
submission-time metadata; run *state* always comes fresh from the run
directory itself (:func:`run_status_payload`), so the index can never
disagree with the ground truth.

A submitted run must record a regenerable dataset source (a registry
preset, or an app's problem definition): the manifest's provenance is
what lets a worker on another machine rebuild the exact field
(fingerprint-checked) without shipping arrays around.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.config import ServiceConfig, load_config

INDEX_NAME = "index.json"
INDEX_VERSION = 1

#: Canonical machine-readable status schema emitted by ``campaign get
#: --json`` and ``campaign status --json`` (locked by tests).
STATUS_SCHEMA = "repro.run-status/1"

_SAFE_COMPONENT = re.compile(r"[^A-Za-z0-9_.=-]+")


class ServiceError(RuntimeError):
    """A registry operation that cannot proceed (unknown run, bad input)."""


def _slug(text: str) -> str:
    """A filesystem-safe path component from free text."""
    cleaned = _SAFE_COMPONENT.sub("-", text.strip()).strip("-.")
    return cleaned or "run"


@dataclass(frozen=True)
class RunEntry:
    """One registry row: identity of a submitted run and where it lives."""

    run_id: str
    project: str
    run_dir: str
    field: str
    target: str
    label: str
    submitted_at: float

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "project": self.project,
            "run_dir": self.run_dir,
            "field": self.field,
            "target": self.target,
            "label": self.label,
            "submitted_at": self.submitted_at,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RunEntry":
        return cls(
            run_id=payload["run_id"],
            project=payload.get("project", "default"),
            run_dir=payload["run_dir"],
            field=payload.get("field", ""),
            target=payload.get("target", ""),
            label=payload.get("label", ""),
            submitted_at=float(payload.get("submitted_at", 0.0)),
        )


class RunRegistry:
    """Project-scoped index of campaign runs under the service home."""

    def __init__(self, home: str | os.PathLike | None = None):
        self.config: ServiceConfig = load_config(home)
        self.runs_dir: Path = self.config.runs_dir
        self.index_path: Path = self.runs_dir / INDEX_NAME

    # -- index --------------------------------------------------------------

    def _read_index(self) -> dict:
        if not self.index_path.is_file():
            return {"index_version": INDEX_VERSION, "runs": {}, "next": 1}
        return json.loads(self.index_path.read_text(encoding="utf-8"))

    def _write_index(self, index: dict) -> None:
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.index_path.with_name(self.index_path.name + ".tmp")
        tmp.write_text(json.dumps(index, indent=2), encoding="utf-8")
        os.replace(tmp, self.index_path)

    # -- resource verbs -----------------------------------------------------

    def submit(self, build, *, name: str, field: str,
               project: str = "default") -> RunEntry:
        """Register and submit a campaign without executing any shard.

        ``build(run_dir)`` returns the runner — a
        :class:`repro.runner.CampaignRunner` or any subclass, such as an
        app campaign's — for the run directory the registry allocates;
        the registry calls its :meth:`~repro.runner.CampaignRunner.submit`
        and records the row.  ``name`` prefixes the run id
        (``<name>-NNNN``, e.g. ``posit32-0001`` or ``cg-posit16-0002``) and
        ``field`` is the listing's field column.  The runner must record
        a regenerable dataset source, because workers on other machines
        rebuild the field from the manifest.
        """
        index = self._read_index()
        seq = int(index.get("next", 1))
        run_id = f"{_slug(name)}-{seq:04d}"
        run_dir = self.runs_dir / _slug(project) / run_id
        if run_dir.exists():
            raise ServiceError(f"registry run directory {run_dir} already exists")

        runner = build(run_dir)
        if runner.dataset is None:
            raise ServiceError(
                "a submitted run needs a regenerable dataset source: workers "
                "rebuild the field from the manifest"
            )
        runner.submit()

        entry = RunEntry(
            run_id=run_id,
            project=project,
            run_dir=str(run_dir),
            field=field,
            target=runner.target.name,
            label=runner.label,
            submitted_at=time.time(),
        )
        index["next"] = seq + 1
        index.setdefault("runs", {})[run_id] = entry.to_json()
        self._write_index(index)
        return entry

    def list_runs(self, project: str | None = None) -> list[RunEntry]:
        """All registered runs, oldest first, optionally project-filtered."""
        index = self._read_index()
        entries = [RunEntry.from_json(row) for row in index.get("runs", {}).values()]
        if project is not None:
            entries = [entry for entry in entries if entry.project == project]
        return sorted(entries, key=lambda entry: entry.submitted_at)

    def get(self, run_id: str) -> RunEntry:
        index = self._read_index()
        row = index.get("runs", {}).get(run_id)
        if row is None:
            known = ", ".join(sorted(index.get("runs", {}))) or "none registered"
            raise ServiceError(f"unknown run id {run_id!r} (known runs: {known})")
        return RunEntry.from_json(row)

    def resolve_run_dir(self, ref: str | os.PathLike) -> Path:
        """A run directory from either a registry id or a filesystem path."""
        path = Path(ref)
        if (path / "manifest.json").is_file():
            return path
        try:
            return Path(self.get(str(ref)).run_dir)
        except ServiceError:
            if path.exists():
                raise ServiceError(
                    f"{path} exists but holds no campaign manifest"
                ) from None
            raise

    def cancel(self, ref: str | os.PathLike, *, reason: str = "") -> Path:
        """Drop the ``CANCELLED`` sentinel into a run's directory.

        Cooperative, not forceful: workers notice the sentinel at their
        next claim loop, stop claiming, and exit; shards already
        computed stay on disk and the run can still be folded/resumed.
        """
        from repro.runner.leases import request_cancel

        run_dir = self.resolve_run_dir(ref)
        request_cancel(run_dir, reason=reason)
        return run_dir


def run_status_payload(run_dir: str | os.PathLike) -> dict:
    """The canonical machine-readable state of one run directory.

    One schema for every surface: ``campaign status --json``,
    ``campaign get --json``, and the watch feed's terminal summary all
    emit exactly this mapping (``schema`` key = :data:`STATUS_SCHEMA`).
    """
    from repro.runner import run_status

    status = run_status(run_dir)
    return {
        "schema": STATUS_SCHEMA,
        "run_dir": status.run_dir,
        "target": status.target_spec,
        "fault_model": status.fault,
        "app": status.app,
        "label": status.label,
        "status": status.status,
        "executor": status.executor,
        "complete": status.complete,
        "cancelled": status.cancelled,
        "shards": {"done": status.shards_done, "total": status.shards_total},
        "trials": {"done": status.trials_done, "total": status.trials_total},
        "pending_bits": list(status.pending_bits),
        "missing_shard_files": list(status.missing_shard_files),
        "quarantined_files": list(status.quarantined_files),
        "workers": [dict(worker) for worker in status.workers],
    }
