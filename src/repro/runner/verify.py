"""End-to-end audit of a campaign run directory (``campaign verify``).

A run directory is only as trustworthy as its weakest artifact: results
are assembled from shard CSVs vouched for by the manifest, diagnosed
through ``events.jsonl``, and profiled into ``telemetry.json``.  This
module re-derives every one of those trust relationships from the bytes
on disk:

* the manifest parses and describes a coherent campaign;
* every completed shard — recorded in the manifest or only in a done
  record a killed run never folded — has a file that exists, matches
  its SHA-256 checksum, parses, holds the expected trial count, and
  records the manifest's fault model;
* the event log parses and reconciles with the manifest's progress;
* the telemetry snapshot (when present) parses;
* quarantined files and orphan shard files are surfaced.

Findings carry a severity: ``error`` means the run's results cannot be
trusted as-is (corrupt shard, unparseable manifest), ``warning`` means
something is off but recoverable (truncated event-log tail, leftover
quarantine evidence).  The CLI maps the report to exit codes — 0 clean,
1 any error, 2 warnings only — so scripts and CI can gate on it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.runner.errors import ManifestError
from repro.runner.events import EVENT_KINDS
from repro.runner.manifest import (
    EVENT_LOG_NAME,
    MANIFEST_NAME,
    RUN_COMPLETED,
    RUN_INTERRUPTED,
    RUN_RUNNING,
    RUN_SUBMITTED,
    SHARD_COMPLETED,
    SHARD_DIR_NAME,
    RunManifest,
    fold_done_records,
    quarantine_dir,
    read_completions,
    shard_checksum,
    shard_file_name,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One verification finding: what check failed, where, and how badly."""

    severity: str
    check: str
    message: str
    path: str | None = None

    def render(self) -> str:
        location = f" [{self.path}]" if self.path else ""
        return f"{self.severity.upper()} ({self.check}){location}: {self.message}"


@dataclass(frozen=True)
class ShardProblem:
    """Why a shard file cannot be trusted: ``missing``, ``checksum``, or ``content``."""

    kind: str
    message: str


def load_trusted_shard(path: Path, records_class, *, checksum: str | None,
                       trials: int):
    """A shard file's records, or the :class:`ShardProblem` that rejects it.

    The one definition of a trustworthy shard file, shared by resume,
    work-stealing adoption, and ``campaign verify``: it exists, its
    bytes hash to ``checksum`` (when one is recorded), it parses as
    ``records_class``, and it holds ``trials`` trials.  Callers decide
    what a problem means — quarantine, a :class:`RunnerError`, or a
    :class:`Finding`.
    """
    if not path.is_file():
        return ShardProblem("missing", "shard file is missing")
    if checksum is not None:
        actual = shard_checksum(path)
        if actual != checksum:
            return ShardProblem(
                "checksum",
                f"checksum mismatch: recorded {checksum}, file hashes to {actual}",
            )
    try:
        records = records_class.read_csv(path)
    except (OSError, ValueError) as error:
        return ShardProblem("content", f"shard file does not parse ({error})")
    if len(records) != trials:
        return ShardProblem(
            "content", f"holds {len(records)} trial(s), expected {trials}"
        )
    return records


@dataclass
class VerifyReport:
    """Everything ``verify_run`` concluded about one run directory."""

    run_dir: str
    findings: list[Finding] = field(default_factory=list)
    shards_checked: int = 0
    events_checked: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        """0 clean, 1 any error, 2 warnings only."""
        if self.errors:
            return 1
        if self.warnings:
            return 2
        return 0

    def render(self) -> str:
        lines = [f"verify: {self.run_dir}"]
        for finding in self.findings:
            lines.append("  " + finding.render())
        if self.ok:
            lines.append(
                f"result: clean ({self.shards_checked} shard file(s), "
                f"{self.events_checked} event(s) checked)"
            )
        else:
            lines.append(
                f"result: {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s)"
            )
        return "\n".join(lines)


def _check_manifest(report: VerifyReport, run_dir: Path) -> RunManifest | None:
    try:
        manifest = RunManifest.load(run_dir)
    except FileNotFoundError as error:
        report.findings.append(
            Finding(SEVERITY_ERROR, "manifest-missing", str(error), MANIFEST_NAME)
        )
        return None
    except ManifestError as error:
        report.findings.append(
            Finding(SEVERITY_ERROR, "manifest-parse", str(error), MANIFEST_NAME)
        )
        return None
    if manifest.status not in (
        RUN_SUBMITTED, RUN_RUNNING, RUN_INTERRUPTED, RUN_COMPLETED,
    ):
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "manifest-status",
                f"unknown run status {manifest.status!r}",
                MANIFEST_NAME,
            )
        )
    for bit, state in manifest.shards.items():
        if bit != state.bit:
            report.findings.append(
                Finding(
                    SEVERITY_ERROR,
                    "manifest-shards",
                    f"shard table key {bit} does not match its entry's bit {state.bit}",
                    MANIFEST_NAME,
                )
            )
    if manifest.status == RUN_COMPLETED and manifest.pending_bits():
        pending = ", ".join(map(str, manifest.pending_bits()))
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "manifest-status",
                f"run marked completed but bits {pending} are still pending",
                MANIFEST_NAME,
            )
        )
    try:
        from repro.formats import resolve

        resolve(manifest.target_spec)
    except Exception as error:
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "manifest-target",
                f"target spec {manifest.target_spec!r} does not resolve ({error})",
                MANIFEST_NAME,
            )
        )
    return manifest


def _check_shards(report: VerifyReport, run_dir: Path, manifest: RunManifest) -> None:
    # App-campaign shards carry the solver-outcome schema, not the
    # value-corruption one; the manifest's app payload decides which
    # parser the shard files must satisfy.
    if manifest.app is not None:
        from repro.apps.campaign import AppTrialRecords as records_class
    else:
        from repro.inject.results import TrialRecords as records_class

    shard_dir = run_dir / SHARD_DIR_NAME
    expected = set()
    for bit in sorted(manifest.shards):
        state = manifest.shards[bit]
        rel = f"{SHARD_DIR_NAME}/{shard_file_name(bit)}"
        path = RunManifest.shard_path(run_dir, bit)
        if state.status != SHARD_COMPLETED:
            if path.is_file():
                report.findings.append(
                    Finding(
                        SEVERITY_WARNING,
                        "shard-unexpected",
                        f"bit {bit} is pending and has no done record but a "
                        "shard file exists; it will be ignored and recomputed",
                        rel,
                    )
                )
            continue
        expected.add(path.name)
        report.shards_checked += 1
        records = load_trusted_shard(
            path, records_class, checksum=state.checksum, trials=state.trials
        )
        if isinstance(records, ShardProblem):
            report.findings.append(
                Finding(SEVERITY_ERROR, f"shard-{records.kind}",
                        f"bit {bit} {records.message}", rel)
            )
            continue
        if state.checksum is None:
            report.findings.append(
                Finding(
                    SEVERITY_WARNING,
                    "shard-unchecksummed",
                    f"bit {bit} has no recorded checksum (pre-checksum run?); "
                    "content cannot be cryptographically verified",
                    rel,
                )
            )
        _check_shard_fault(report, manifest, records, bit, rel)
    if shard_dir.is_dir():
        for path in sorted(shard_dir.iterdir()):
            if path.is_dir() or path.name in expected:
                continue
            bit_name = {shard_file_name(bit) for bit in manifest.shards}
            if path.name in bit_name:
                continue  # pending shard file, already warned above
            report.findings.append(
                Finding(
                    SEVERITY_WARNING,
                    "shard-orphan",
                    "file does not belong to any shard in the manifest",
                    f"{SHARD_DIR_NAME}/{path.name}",
                )
            )


def _check_shard_fault(
    report: VerifyReport, manifest: RunManifest, records, bit: int, rel: str
) -> None:
    """A shard's ``fault_spec`` column must agree with the manifest.

    The fault model is part of the run identity, so a shard computed
    under a different model (or a default-model shard folded into a
    non-default run) would silently poison every per-model aggregation.
    """
    from repro.inject.faultspec import DEFAULT_FAULT_SPEC

    if manifest.fault == DEFAULT_FAULT_SPEC:
        specs = set() if records.fault_spec is None else set(records.fault_spec)
        if specs and specs != {DEFAULT_FAULT_SPEC}:
            report.findings.append(
                Finding(
                    SEVERITY_ERROR,
                    "shard-fault",
                    f"bit {bit} records fault model(s) {sorted(specs)} but the "
                    f"manifest describes a default ({DEFAULT_FAULT_SPEC!r}) run",
                    rel,
                )
            )
        return
    if records.fault_spec is None:
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "shard-fault",
                f"bit {bit} has no fault_spec column but the manifest records "
                f"fault model {manifest.fault!r}",
                rel,
            )
        )
        return
    specs = set(records.fault_spec)
    if specs != {manifest.fault}:
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "shard-fault",
                f"bit {bit} records fault model(s) {sorted(specs)}, manifest "
                f"records {manifest.fault!r}",
                rel,
            )
        )


def _check_events(report: VerifyReport, run_dir: Path, manifest: RunManifest) -> None:
    path = RunManifest.event_log_path(run_dir)
    rel = EVENT_LOG_NAME
    if not path.is_file():
        report.findings.append(
            Finding(
                SEVERITY_WARNING,
                "events-missing",
                "no events.jsonl; the run has no flight recorder",
                rel,
            )
        )
        return
    events: list[dict] = []
    truncated = False
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                truncated = True
                break
    report.events_checked = len(events)
    if truncated:
        report.findings.append(
            Finding(
                SEVERITY_WARNING,
                "events-truncated",
                f"unparseable line after {len(events)} event(s) — a hard kill "
                "can tear the final line; later events are unreadable",
                rel,
            )
        )
    unknown = sorted({e.get("kind") for e in events} - set(EVENT_KINDS) - {None})
    if unknown:
        report.findings.append(
            Finding(
                SEVERITY_WARNING,
                "events-unknown-kind",
                f"unknown event kind(s): {', '.join(map(str, unknown))}",
                rel,
            )
        )
    finished = {
        e.get("bit")
        for e in events
        if e.get("kind") in ("shard_finish", "shard_skipped")
    }
    unaccounted = [b for b in manifest.completed_bits() if b not in finished]
    if unaccounted:
        report.findings.append(
            Finding(
                SEVERITY_WARNING,
                "events-reconcile",
                "manifest marks bits "
                f"{', '.join(map(str, unaccounted))} completed but the event "
                "log records no shard_finish/shard_skipped for them (an "
                "in-flight event can be lost to a hard kill)",
                rel,
            )
        )
    if manifest.status == RUN_COMPLETED and not any(
        e.get("kind") == "run_finish" for e in events
    ):
        report.findings.append(
            Finding(
                SEVERITY_WARNING,
                "events-reconcile",
                "manifest says the run completed but no run_finish event "
                "was logged",
                rel,
            )
        )


def _check_telemetry(report: VerifyReport, run_dir: Path) -> None:
    from repro.telemetry import telemetry_path
    from repro.telemetry.core import TelemetrySnapshot

    path = telemetry_path(run_dir)
    if not path.is_file():
        return
    rel = path.name
    try:
        payload = json.loads(path.read_text(encoding="utf-8", errors="strict"))
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "telemetry-parse",
                f"telemetry snapshot does not parse ({error})",
                rel,
            )
        )
        return
    try:
        TelemetrySnapshot.from_json(payload)
    except Exception as error:
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "telemetry-content",
                f"telemetry snapshot is structurally invalid ({error!r})",
                rel,
            )
        )


def _check_quarantine(report: VerifyReport, run_dir: Path) -> None:
    directory = quarantine_dir(run_dir)
    if not directory.is_dir():
        return
    files = sorted(p.name for p in directory.iterdir())
    if files:
        report.findings.append(
            Finding(
                SEVERITY_WARNING,
                "quarantine",
                f"{len(files)} quarantined file(s) preserved for post-mortem: "
                + ", ".join(files),
                f"{SHARD_DIR_NAME}/{directory.name}",
            )
        )


def verify_run(run_dir: str | os.PathLike, data=None) -> VerifyReport:
    """Audit one run directory; every finding lands in the report.

    ``data`` optionally re-checks the dataset fingerprint against the
    manifest (the same check a resume performs).
    """
    run_dir = Path(run_dir)
    report = VerifyReport(run_dir=str(run_dir))
    if not run_dir.is_dir():
        report.findings.append(
            Finding(
                SEVERITY_ERROR,
                "run-dir",
                f"{run_dir} is not a directory",
            )
        )
        return report
    manifest = _check_manifest(report, run_dir)
    if manifest is None:
        return report
    if data is not None:
        from repro.runner.manifest import dataset_fingerprint

        actual = dataset_fingerprint(data)
        if actual != manifest.data_fingerprint:
            report.findings.append(
                Finding(
                    SEVERITY_ERROR,
                    "data-fingerprint",
                    f"dataset fingerprint {actual} does not match the "
                    f"manifest's {manifest.data_fingerprint}",
                    MANIFEST_NAME,
                )
            )
    # Shards a killed run completed but never folded are audited like
    # folded ones, against the checksum their writer put in the done record.
    manifest = fold_done_records(manifest, read_completions(run_dir))
    _check_shards(report, run_dir, manifest)
    _check_events(report, run_dir, manifest)
    _check_telemetry(report, run_dir)
    _check_quarantine(report, run_dir)
    return report
