"""``campaign top``: a live, refresh-in-place view of a distributed run.

One :func:`fleet_snapshot` joins everything the run directory already
records — the manifest folded with the done records, the multi-writer
event log, lease files, and the per-worker time-series under
``metrics/`` — into a single queryable picture: per-worker throughput
and RSS, active and stolen leases, straggler shards, and stall state.  :func:`render_top`
draws it as a text frame and :func:`campaign_top` refreshes the frame
in place on a TTY (plain repeated frames on pipes), exiting when the
run reaches a terminal state.

Straggler detection: a completed shard is an outlier when its duration
is at least the fleet's p95 *and* more than ``straggler_factor`` times
the median (both conditions, so uniform fleets flag nothing); an
in-flight lease older than ``straggler_factor`` times the median shard
duration is flagged before it even completes.  The same
:func:`repro.service.watch.detect_stall` rule that alarms ``campaign
watch`` marks the whole run stalled when progress flatlines.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.runner.events import read_event_log
from repro.runner.leases import active_leases, cancel_requested, read_done_records
from repro.runner.manifest import (
    RUN_COMPLETED,
    SHARD_COMPLETED,
    RunManifest,
    load_folded,
)
from repro.service.watch import detect_stall, throughput_from_events
from repro.telemetry import read_metrics
from repro.telemetry.humanize import format_duration
from repro.telemetry.timeseries import latest_points


@dataclass(frozen=True)
class FleetSnapshot:
    """One observation of a run's whole fleet."""

    run_dir: str
    run_id: str
    target: str
    status: str
    cancelled: bool
    generated_at: float
    shards_done: int
    shards_total: int
    trials_done: int
    trials_total: int
    trials_per_sec: float | None
    eta_seconds: float | None
    active_workers: int
    leases_active: int
    leases_stolen: int
    workers: tuple[dict, ...] = ()
    stragglers: tuple[dict, ...] = ()
    stalled: bool = False
    stall_seconds: float = 0.0
    trace_id: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.cancelled or self.status == RUN_COMPLETED

    def to_json(self) -> dict:
        return {
            "schema": "repro.fleet-snapshot/1",
            "run_dir": self.run_dir,
            "run_id": self.run_id,
            "target": self.target,
            "status": self.status,
            "cancelled": self.cancelled,
            "generated_at": self.generated_at,
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "trials_done": self.trials_done,
            "trials_total": self.trials_total,
            "trials_per_sec": self.trials_per_sec,
            "eta_seconds": self.eta_seconds,
            "active_workers": self.active_workers,
            "leases_active": self.leases_active,
            "leases_stolen": self.leases_stolen,
            "workers": list(self.workers),
            "stragglers": list(self.stragglers),
            "stalled": self.stalled,
            "stall_seconds": self.stall_seconds,
            "trace_id": self.trace_id,
        }


def _straggler_threshold(durations: list[float], factor: float) -> float | None:
    """The duration above which a shard counts as a straggler.

    Requires at least four samples (p95 of fewer is just the max) and
    both conditions — ``>= p95`` and ``> factor × median`` — so a
    uniform fleet never flags its slowest member.
    """
    if len(durations) < 4:
        return None
    arr = np.asarray(durations, dtype=float)
    median = float(np.median(arr))
    p95 = float(np.quantile(arr, 0.95))
    if median <= 0.0:
        return None
    return max(p95, factor * median)


def fleet_snapshot(
    run_dir: str | os.PathLike,
    *,
    straggler_factor: float = 2.0,
    stall_after: float = 30.0,
    now: float | None = None,
) -> FleetSnapshot:
    """Join the run directory's records into one fleet observation."""
    directory = Path(run_dir)
    manifest = load_folded(directory)
    log_path = RunManifest.event_log_path(directory)
    events = read_event_log(log_path) if log_path.is_file() else []
    now = now if now is not None else time.time()
    summary = throughput_from_events(events, now=now)
    stalled, stall_seconds = detect_stall(events, stall_after=stall_after, now=now)

    done = read_done_records(directory)
    leases = active_leases(directory)
    series = read_metrics(directory)
    latest = latest_points(series)

    # Per-worker accounting: done records give completed work, events
    # give claims/steals/liveness, the metrics series gives live gauges.
    workers: dict[str, dict] = {}

    def worker_row(name: str) -> dict:
        return workers.setdefault(
            name,
            {
                "worker": name,
                "shards_done": 0,
                "trials_done": 0,
                "claims": 0,
                "steals": 0,
                "trials_per_sec": None,
                "rss_bytes": None,
                "last_seen_age": None,
                "busy_seconds": 0.0,
                "status": "unknown",
            },
        )

    durations: list[float] = []
    duration_by_bit: dict[int, tuple[str, float]] = {}
    for bit, record in done.items():
        name = str(record.get("worker") or "?")
        row = worker_row(name)
        row["shards_done"] += 1
        row["trials_done"] += int(record.get("trials") or 0)
        duration = float(record.get("duration") or 0.0)
        row["busy_seconds"] += duration
        durations.append(duration)
        duration_by_bit[bit] = (name, duration)

    # Manifest shard states cover run directories written before every
    # executor left done records.
    for bit, state in manifest.shards.items():
        if bit in duration_by_bit or state.duration is None:
            continue
        name = str(state.worker or "coordinator")
        if state.status == SHARD_COMPLETED:
            row = worker_row(name)
            row["shards_done"] += 1
            row["trials_done"] += int(state.trials)
            row["busy_seconds"] += float(state.duration)
            durations.append(float(state.duration))
            duration_by_bit[bit] = (name, float(state.duration))

    stolen_total = 0
    trace_id = None
    for event in events:
        kind = event.get("kind")
        detail = event.get("detail") or {}
        name = detail.get("worker")
        if event.get("trace_id") and trace_id is None:
            trace_id = event["trace_id"]
        if kind == "lease_stolen":
            stolen_total += 1
            if name:
                worker_row(name)["steals"] += 1
        elif kind == "shard_claimed" and name:
            worker_row(name)["claims"] += 1
        elif kind == "worker_start" and name:
            worker_row(name)["status"] = "running"
        elif kind == "worker_exit" and name:
            worker_row(name)["status"] = str(detail.get("status") or "exited")

    for name, point in latest.items():
        row = worker_row(name)
        if point.get("trials_per_sec") is not None:
            row["trials_per_sec"] = float(point["trials_per_sec"])
        if point.get("rss_bytes") is not None:
            row["rss_bytes"] = int(point["rss_bytes"])
        row["last_seen_age"] = round(max(now - float(point["ts"]), 0.0), 3)
        # A worker whose last sample predates the stall window is gone.
        if row["status"] == "unknown":
            row["status"] = "running" if row["last_seen_age"] < stall_after else "quiet"

    stragglers: list[dict] = []
    threshold = _straggler_threshold(durations, straggler_factor)
    if threshold is not None:
        median = float(np.median(np.asarray(durations)))
        for bit, (name, duration) in sorted(duration_by_bit.items()):
            if duration >= threshold and duration > straggler_factor * median:
                stragglers.append(
                    {
                        "bit": bit,
                        "worker": name,
                        "duration": round(duration, 6),
                        "median": round(median, 6),
                        "state": "completed",
                    }
                )
        for lease in leases:
            if float(lease["age_seconds"]) > straggler_factor * median:
                stragglers.append(
                    {
                        "bit": lease["bit"],
                        "worker": lease["worker"],
                        "duration": round(float(lease["age_seconds"]), 6),
                        "median": round(median, 6),
                        "state": "in-flight",
                    }
                )

    return FleetSnapshot(
        run_dir=str(directory),
        run_id=directory.name,
        target=manifest.target_spec,
        status=manifest.status,
        cancelled=cancel_requested(directory),
        generated_at=now,
        shards_done=len(manifest.completed_bits()),
        shards_total=len(manifest.shards),
        trials_done=manifest.trials_done,
        trials_total=manifest.trials_total,
        trials_per_sec=summary["trials_per_sec"],
        eta_seconds=summary["eta_seconds"],
        active_workers=summary["active_workers"],
        leases_active=len(leases),
        leases_stolen=stolen_total,
        workers=tuple(
            workers[name] for name in sorted(workers, key=lambda n: (n == "?", n))
        ),
        stragglers=tuple(stragglers),
        stalled=stalled,
        stall_seconds=stall_seconds,
        trace_id=trace_id,
    )


def _fmt_bytes(value) -> str:
    if value is None:
        return "-"
    value = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.0f}{unit}" if unit == "B" else f"{value:,.1f}{unit}"
        value /= 1024
    return f"{value:,.1f}GiB"


def render_top(snapshot: FleetSnapshot) -> str:
    """The ``campaign top`` frame for one fleet snapshot."""
    lines = [
        f"run {snapshot.run_id} · {snapshot.target} · status {snapshot.status}"
        + (" [CANCELLED]" if snapshot.cancelled else ""),
        f"shards {snapshot.shards_done}/{snapshot.shards_total}"
        f" · trials {snapshot.trials_done}/{snapshot.trials_total}"
        + (
            f" · {snapshot.trials_per_sec:,.1f} trials/s"
            if snapshot.trials_per_sec is not None
            else ""
        )
        + (
            f" · ETA {format_duration(snapshot.eta_seconds)}"
            if snapshot.eta_seconds
            else ""
        ),
        f"workers {snapshot.active_workers} active"
        f" · leases {snapshot.leases_active} active"
        f" / {snapshot.leases_stolen} stolen"
        + (f" · trace {snapshot.trace_id}" if snapshot.trace_id else ""),
    ]
    if snapshot.stalled:
        lines.append(
            f"** STALLED: no progress for {snapshot.stall_seconds:.0f}s **"
        )
    if snapshot.workers:
        lines.append("")
        header = (
            f"{'WORKER':<28} {'SHARDS':>6} {'TRIALS':>8} {'TRIALS/S':>9} "
            f"{'RSS':>9} {'CLAIMS':>6} {'STEALS':>6} {'SEEN':>6} STATUS"
        )
        lines.append(header)
        for row in snapshot.workers:
            rate = (
                f"{row['trials_per_sec']:,.1f}"
                if row.get("trials_per_sec") is not None
                else "-"
            )
            seen = (
                f"{row['last_seen_age']:.0f}s"
                if row.get("last_seen_age") is not None
                else "-"
            )
            lines.append(
                f"{row['worker']:<28} {row['shards_done']:>6} "
                f"{row['trials_done']:>8} {rate:>9} "
                f"{_fmt_bytes(row.get('rss_bytes')):>9} {row['claims']:>6} "
                f"{row['steals']:>6} {seen:>6} {row['status']}"
            )
    if snapshot.stragglers:
        lines.append("")
        lines.append("stragglers (p95-duration outliers):")
        for item in snapshot.stragglers:
            lines.append(
                f"  bit {item['bit']:>3} [{item['state']}] "
                f"{format_duration(item['duration'])} vs median "
                f"{format_duration(item['median'])} · worker {item['worker']}"
            )
    return "\n".join(lines)


def campaign_top(
    run_dir: str | os.PathLike,
    *,
    refresh: float = 2.0,
    iterations: int | None = None,
    stream=None,
    clear: bool | None = None,
    straggler_factor: float = 2.0,
    stall_after: float = 30.0,
) -> int:
    """Refresh-in-place fleet view; returns a ``campaign top`` exit code.

    Frames redraw until the run completes (exit 0), is cancelled (exit
    3), or ``iterations`` frames have been drawn (exit 0 — the CI /
    ``--once`` path).  ``clear`` defaults to whether the stream is a
    TTY; when true each frame starts with an ANSI home+clear so the
    view refreshes in place like ``top``.
    """
    out = stream if stream is not None else sys.stdout
    if clear is None:
        clear = bool(getattr(out, "isatty", lambda: False)())
    drawn = 0
    while True:
        snapshot = fleet_snapshot(
            run_dir, straggler_factor=straggler_factor, stall_after=stall_after
        )
        frame = render_top(snapshot)
        if clear:
            print("\x1b[2J\x1b[H" + frame, file=out, flush=True)
        else:
            if drawn:
                print("", file=out)
            print(frame, file=out, flush=True)
        drawn += 1
        if snapshot.cancelled:
            return 3
        if snapshot.status == RUN_COMPLETED:
            return 0
        if iterations is not None and drawn >= iterations:
            return 0
        time.sleep(refresh)
