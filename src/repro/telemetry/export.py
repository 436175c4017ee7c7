"""Telemetry exporters: JSON snapshot files and Prometheus text format.

The JSON snapshot (``<run-dir>/telemetry.json``) is the durable form the
runner writes next to ``manifest.json`` / ``events.jsonl``; it
round-trips through :class:`~repro.telemetry.core.TelemetrySnapshot` so
reports and the ``campaign status`` command can re-read it.  The
Prometheus rendering serves scrape-style integration (push the file to a
node-exporter textfile collector, or serve it from a sidecar).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.telemetry.core import TelemetrySnapshot

#: File name the runner writes inside a run directory.
TELEMETRY_FILE_NAME = "telemetry.json"

#: Directory holding per-worker snapshots from standalone / forked
#: work-stealing workers (one file per worker, merged at read time).
WORKER_TELEMETRY_DIR_NAME = "telemetry-workers"


def telemetry_path(run_dir: str | os.PathLike) -> Path:
    return Path(run_dir) / TELEMETRY_FILE_NAME


def worker_telemetry_dir(run_dir: str | os.PathLike) -> Path:
    return Path(run_dir) / WORKER_TELEMETRY_DIR_NAME


def worker_telemetry_path(run_dir: str | os.PathLike, worker: str) -> Path:
    slug = "".join(ch if (ch.isalnum() or ch in "._-") else "-" for ch in str(worker))
    return worker_telemetry_dir(run_dir) / f"{slug or 'worker'}.json"


def write_snapshot(snapshot: TelemetrySnapshot, path: str | os.PathLike) -> Path:
    """Atomically write a snapshot as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(snapshot.to_json(), indent=2, sort_keys=True))
    os.replace(tmp, path)
    return path


def load_snapshot(path: str | os.PathLike) -> TelemetrySnapshot:
    """Read a snapshot written by :func:`write_snapshot`."""
    return TelemetrySnapshot.from_json(json.loads(Path(path).read_text()))


def write_worker_snapshot(
    snapshot: TelemetrySnapshot, run_dir: str | os.PathLike, worker: str
) -> Path:
    """Persist one worker's snapshot beside the run's done records.

    Standalone ``campaign worker`` processes (and forked work-stealing
    children) each write their own file; nothing merges on the write
    path, so crash-looped workers simply overwrite their previous file
    and the merged view stays idempotent.
    """
    return write_snapshot(snapshot, worker_telemetry_path(run_dir, worker))


def load_worker_snapshots(
    run_dir: str | os.PathLike,
) -> dict[str, TelemetrySnapshot]:
    """Per-worker snapshots written by :func:`write_worker_snapshot`."""
    directory = worker_telemetry_dir(run_dir)
    if not directory.is_dir():
        return {}
    out: dict[str, TelemetrySnapshot] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            out[path.stem] = load_snapshot(path)
        except (OSError, ValueError, KeyError):
            continue
    return out


def load_run_snapshot(run_dir: str | os.PathLike) -> TelemetrySnapshot | None:
    """The run's merged snapshot, or None when never profiled.

    Merges the runner's ``telemetry.json`` (serial/pool runs, and the
    adoption work of a work-stealing run) with every per-worker
    file under ``telemetry-workers/``.  Merging happens at read time —
    snapshot merge is associative, so the result is independent of how
    many workers the run was split across (the jobs=1 ≡ jobs=N
    identity the telemetry tests assert).
    """
    merged = TelemetrySnapshot()
    found = False
    path = telemetry_path(run_dir)
    if path.is_file():
        merged.merge(load_snapshot(path))
        found = True
    for snapshot in load_worker_snapshots(run_dir).values():
        merged.merge(snapshot)
        found = True
    return merged if found else None


def _metric_name(name: str) -> str:
    """Sanitize a dotted telemetry name into a Prometheus metric name."""
    out = []
    for ch in name.lower():
        out.append(ch if ch.isalnum() else "_")
    metric = "".join(out)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return metric


def render_prometheus(
    snapshot: TelemetrySnapshot, prefix: str = "repro", labels: dict | None = None
) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total``; each span contributes
    ``*_seconds_total``, ``*_self_seconds_total`` and ``*_count``
    series labelled by span name.
    """
    label_str = ""
    if labels:
        pairs = ",".join(
            f'{_metric_name(k)}="{str(v)}"' for k, v in sorted(labels.items())
        )
        label_str = pairs
    lines: list[str] = []

    def fmt(metric: str, value, extra_label: str = "") -> str:
        parts = ",".join(p for p in (extra_label, label_str) if p)
        braces = f"{{{parts}}}" if parts else ""
        return f"{metric}{braces} {value}"

    if snapshot.counters:
        lines.append(f"# TYPE {prefix}_counter_total counter")
        for name in sorted(snapshot.counters):
            lines.append(
                fmt(
                    f"{prefix}_counter_total",
                    snapshot.counters[name],
                    f'name="{name}"',
                )
            )
    if snapshot.spans:
        lines.append(f"# TYPE {prefix}_span_seconds_total counter")
        lines.append(f"# TYPE {prefix}_span_self_seconds_total counter")
        lines.append(f"# TYPE {prefix}_span_count counter")
        for name in sorted(snapshot.spans):
            stats = snapshot.spans[name]
            label = f'name="{name}"'
            lines.append(
                fmt(f"{prefix}_span_seconds_total", f"{stats.total_seconds:.9f}", label)
            )
            lines.append(
                fmt(
                    f"{prefix}_span_self_seconds_total",
                    f"{stats.self_seconds:.9f}",
                    label,
                )
            )
            lines.append(fmt(f"{prefix}_span_count", stats.count, label))
    return "\n".join(lines) + ("\n" if lines else "")
