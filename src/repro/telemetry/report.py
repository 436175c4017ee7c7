"""The campaign run report: events + telemetry joined into markdown.

``render_run_report(run_dir)`` reads the three observability artifacts a
profiled run leaves behind — ``manifest.json`` folded with the shards'
done records (identity + per-shard durations), ``events.jsonl`` (the lifecycle flight recorder) and
``telemetry.json`` (counters + span timings from the codec hot path up)
— and renders one markdown document answering the questions the paper's
scale forces: where does the wall-clock go (encode/decode vs injection
vs metric kernels), how fast is each shard, and do the two independent
clocks (runner events vs telemetry spans) agree.

The report degrades gracefully: a run without ``telemetry.json`` (not
profiled) still gets the event/shard sections, and a truncated event log
(hard kill) is read up to its last parseable line.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.telemetry.core import TelemetrySnapshot
from repro.telemetry.export import load_run_snapshot
from repro.telemetry.humanize import format_count, format_duration, format_rate

#: Spans whose *total* (inclusive) time is the natural per-phase story.
#: Everything else is reported by exclusive self-time so columns sum.
_SHARD_SPAN = "inject.shard"


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a GitHub-style markdown table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _phase_table(snapshot: TelemetrySnapshot) -> str:
    phases = snapshot.phase_seconds()
    total = sum(phases.values())
    rows = []
    for phase, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        share = f"{seconds / total:.1%}" if total > 0 else "-"
        rows.append([phase, format_duration(seconds), share])
    rows.append(["total", format_duration(total), "100.0%" if total > 0 else "-"])
    return _markdown_table(["phase", "self time", "share"], rows)


def _span_table(snapshot: TelemetrySnapshot) -> str:
    rows = []
    for name in sorted(snapshot.spans):
        stats = snapshot.spans[name]
        rows.append(
            [
                f"`{name}`",
                str(stats.count),
                format_duration(stats.total_seconds),
                format_duration(stats.self_seconds),
                format_duration(stats.mean_ns / 1e9),
            ]
        )
    return _markdown_table(["span", "calls", "total", "self", "mean/call"], rows)


def _counter_table(snapshot: TelemetrySnapshot) -> str:
    rows = [
        [f"`{name}`", format_count(snapshot.counters[name])]
        for name in sorted(snapshot.counters)
    ]
    return _markdown_table(["counter", "value"], rows)


def _shard_rows(manifest, events: list[dict]) -> list[list[str]]:
    """Per-shard timing rows, preferring event-log durations.

    ``shard_finish`` events carry the measured compute duration in their
    detail; the manifest's per-shard ``duration`` covers shards whose
    finish event was lost (e.g. truncated by a hard kill).
    """
    durations: dict[int, float] = {
        state.bit: state.duration
        for state in manifest.shards.values()
        if state.duration is not None
    }
    attempts: dict[int, int] = {
        state.bit: state.attempts for state in manifest.shards.values()
    }
    for event in events:
        if event.get("kind") == "shard_finish" and "bit" in event:
            duration = event.get("detail", {}).get("duration")
            if duration is not None:
                durations[int(event["bit"])] = float(duration)
    rows = []
    for bit in sorted(manifest.shards):
        state = manifest.shards[bit]
        duration = durations.get(bit)
        if duration:
            rate = format_rate(state.trials / duration, "trials")
            shown = format_duration(duration)
        else:
            rate = "-"
            shown = "-"
        rows.append(
            [str(bit), state.status, str(state.trials), shown, rate,
             str(attempts.get(bit, 0))]
        )
    return rows


def _reconciliation(snapshot: TelemetrySnapshot, manifest, events: list[dict]) -> str:
    """Compare the telemetry shard span against the runner's own clocks."""
    span = snapshot.spans.get(_SHARD_SPAN)
    if span is None:
        return ""
    event_total = 0.0
    for event in events:
        if event.get("kind") == "shard_finish":
            duration = event.get("detail", {}).get("duration")
            if duration is not None:
                event_total += float(duration)
    if event_total == 0.0:
        event_total = sum(
            state.duration for state in manifest.shards.values()
            if state.duration is not None
        )
    if event_total == 0.0:
        return ""
    delta = abs(span.total_seconds - event_total)
    rel = delta / event_total if event_total else 0.0
    return (
        f"Shard compute per telemetry (`{_SHARD_SPAN}`): "
        f"{format_duration(span.total_seconds)}; per runner events/manifest: "
        f"{format_duration(event_total)} (difference {rel:.2%})."
    )


def render_run_report(run_dir: str | os.PathLike) -> str:
    """Render the markdown run report for a campaign run directory."""
    from repro.runner.events import read_event_log
    from repro.runner.manifest import RunManifest, load_folded

    run_dir = Path(run_dir)
    manifest = load_folded(run_dir)
    event_path = RunManifest.event_log_path(run_dir)
    events = read_event_log(event_path) if event_path.is_file() else []
    snapshot = load_run_snapshot(run_dir)

    lines = [f"# Campaign run report — `{run_dir}`", ""]
    label = f" (label: {manifest.label})" if manifest.label else ""
    executor = f" · **executor:** {manifest.executor}" if manifest.executor else ""
    lines += [
        f"- **target:** `{manifest.target_spec}`{label}",
        f"- **status:** {manifest.status}{executor}",
        f"- **shards:** {len(manifest.completed_bits())}/{len(manifest.shards)} "
        f"completed · **trials:** {manifest.trials_done}/{manifest.trials_total}",
        f"- **data:** {manifest.data_size} elements "
        f"(fingerprint `{manifest.data_fingerprint}`)",
    ]
    finish = next(
        (e for e in reversed(events) if e.get("kind") in ("run_finish", "run_interrupted")),
        None,
    )
    if finish is not None:
        elapsed = float(finish.get("elapsed", 0.0))
        rate = finish.get("trials_per_sec")
        wall = f"- **wall clock (last run):** {format_duration(elapsed)}"
        if rate:
            wall += f" at {format_rate(float(rate), 'trials')}"
        if finish.get("jobs"):
            wall += f" with jobs={finish['jobs']}"
        lines.append(wall)
    lines.append("")

    if snapshot is not None and not snapshot.empty:
        lines += ["## Where the time went", "", _phase_table(snapshot), ""]
        lines += ["## Spans", "", _span_table(snapshot), ""]
        if snapshot.counters:
            lines += ["## Counters", "", _counter_table(snapshot), ""]
        reconciliation = _reconciliation(snapshot, manifest, events)
        if reconciliation:
            lines += ["## Reconciliation", "", reconciliation, ""]
    else:
        lines += [
            "_No `telemetry.json` in this run directory — run with "
            "`--profile` (or `REPRO_TELEMETRY=1`) to collect span and "
            "counter telemetry._",
            "",
        ]

    shard_rows = _shard_rows(manifest, events)
    if shard_rows:
        lines += [
            "## Shards",
            "",
            _markdown_table(
                ["bit", "status", "trials", "duration", "throughput", "attempts"],
                shard_rows,
            ),
            "",
        ]

    retries = sum(1 for e in events if e.get("kind") == "shard_retry")
    fallbacks = sum(1 for e in events if e.get("kind") == "shard_fallback")
    hung = sum(1 for e in events if e.get("kind") == "shard_hung")
    quarantined = sum(1 for e in events if e.get("kind") == "shard_quarantined")
    chaos = sum(1 for e in events if e.get("kind") == "chaos_fault")
    if retries or fallbacks or hung or quarantined or chaos:
        parts = [
            f"{retries} shard retr{'y' if retries == 1 else 'ies'}",
            f"{fallbacks} in-process fallback(s)",
        ]
        if hung:
            parts.append(f"{hung} hung-worker kill(s)")
        if quarantined:
            parts.append(f"{quarantined} quarantined shard file(s)")
        if chaos:
            parts.append(f"{chaos} injected chaos fault(s)")
        lines += [f"_{', '.join(parts)} recorded in the event log._", ""]

    integrity = _integrity_section(run_dir)
    if integrity:
        lines += integrity
    return "\n".join(lines)


def _integrity_section(run_dir: Path) -> list[str]:
    """The ``campaign verify`` audit, inlined into the report.

    The report joins three artifacts; this section says whether those
    artifacts can be believed (checksums, reconciliation, quarantine).
    """
    from repro.runner.verify import verify_run

    report = verify_run(run_dir)
    lines = ["## Integrity", ""]
    if report.ok:
        lines += [
            f"`campaign verify` is clean: {report.shards_checked} shard "
            f"file(s) and {report.events_checked} event(s) audited.",
            "",
        ]
        return lines
    for finding in report.findings:
        lines.append(f"- {finding.render()}")
    lines += [
        "",
        f"_{len(report.errors)} error(s), {len(report.warnings)} warning(s) — "
        f"see `posit-resiliency campaign verify {run_dir}`._",
        "",
    ]
    return lines


def write_run_report(run_dir: str | os.PathLike, out: str | os.PathLike | None = None) -> Path:
    """Render and write the report (default ``<run-dir>/report.md``)."""
    run_dir = Path(run_dir)
    path = Path(out) if out is not None else run_dir / "report.md"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_run_report(run_dir))
    return path
