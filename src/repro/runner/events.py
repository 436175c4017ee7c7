"""Runner observability: events, hooks, JSONL log, progress rendering.

Every state change of a :class:`repro.runner.CampaignRunner` is one
:class:`RunnerEvent`.  Consumers implement :class:`RunnerHooks` (all
methods optional) or subscribe to the catch-all ``on_event``; two
ready-made consumers ship here — :class:`EventLogWriter` appends each
event as one JSON line (the campaign's black-box flight recorder) and
:class:`ProgressRenderer` draws a terminal progress line with trial
throughput, ETA, and worker utilization.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry import format_duration

#: Event kinds emitted by the runner, in rough lifecycle order.  The
#: ``run_submitted``/``worker_*``/``shard_claimed``/``lease_stolen``/
#: ``shard_adopted`` kinds belong to the work-stealing execution path
#: (:mod:`repro.runner.worker`), where several processes append to the
#: same ``events.jsonl`` — each event is written as one atomic
#: ``O_APPEND`` line so identities interleave but never tear.
EVENT_KINDS = (
    "run_submitted",
    "run_start",
    "worker_start",
    "shard_start",
    "shard_claimed",
    "lease_stolen",
    "shard_finish",
    "shard_adopted",
    "shard_error",
    "shard_retry",
    "shard_fallback",
    "shard_skipped",
    "shard_hung",
    "shard_quarantined",
    "chaos_fault",
    "worker_exit",
    "run_interrupted",
    "run_finish",
)


@dataclass(frozen=True)
class RunnerEvent:
    """One observable runner state change.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    elapsed:
        Seconds since the run (or resume) started.
    bit:
        The shard's bit position for shard-scoped events, else None.
    attempt:
        0-based execution attempt for shard events (>0 means a retry).
    shards_done / shards_total, trials_done / trials_total:
        Progress counters, including shards restored by a resume.
    trials_per_sec:
        Completed trials per wall-clock second of this run so far.
    eta_seconds:
        Projected seconds until completion at the current rate.
    utilization:
        Busy fraction of the worker pool: summed shard compute time over
        ``elapsed * jobs`` (1.0 == perfectly busy workers).
    error:
        Stringified exception for ``shard_error`` / ``shard_retry``.
    trace_id:
        The run's distributed-trace id when tracing is enabled (joins
        events to the span records under ``<run_dir>/trace/``); None —
        and absent from the JSON line — on untraced runs.
    """

    kind: str
    elapsed: float = 0.0
    bit: int | None = None
    attempt: int = 0
    shards_done: int = 0
    shards_total: int = 0
    trials_done: int = 0
    trials_total: int = 0
    jobs: int = 1
    trials_per_sec: float | None = None
    eta_seconds: float | None = None
    utilization: float | None = None
    error: str | None = None
    trace_id: str | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """A JSON-serializable mapping (wall-clock stamped at call time)."""
        # No ``asdict`` deep copy: callers serialize the mapping at once.
        payload = {"ts": time.time(), **vars(self)}
        if self.detail:
            payload["detail"] = dict(self.detail)
        else:
            del payload["detail"]
        return {key: value for key, value in payload.items() if value is not None}


class RunnerHooks:
    """Base class for event consumers; override any subset of methods.

    ``shard_error``, ``shard_retry`` and ``shard_fallback`` all route to
    :meth:`on_shard_error` (they are stages of the same failure);
    ``on_event`` sees *every* event after its specific handler.
    """

    def on_run_start(self, event: RunnerEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_shard_start(self, event: RunnerEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_shard_finish(self, event: RunnerEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_shard_error(self, event: RunnerEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_run_finish(self, event: RunnerEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_event(self, event: RunnerEvent) -> None:  # pragma: no cover - default no-op
        pass

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    # Hooks are context managers, so resources (log handles, sockets)
    # release deterministically even when the run raises:
    #     with EventLogWriter(path) as log:
    #         run_campaign(..., hooks=log)
    def __enter__(self) -> "RunnerHooks":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


_SPECIFIC_HANDLER = {
    "run_submitted": "on_run_start",
    "run_start": "on_run_start",
    "shard_start": "on_shard_start",
    "shard_claimed": "on_shard_start",
    "shard_finish": "on_shard_finish",
    "shard_adopted": "on_shard_finish",
    "shard_skipped": "on_shard_finish",
    "shard_error": "on_shard_error",
    "shard_retry": "on_shard_error",
    "shard_fallback": "on_shard_error",
    "shard_hung": "on_shard_error",
    "shard_quarantined": "on_shard_error",
    "lease_stolen": "on_shard_error",
    "run_interrupted": "on_run_finish",
    "run_finish": "on_run_finish",
}


def dispatch_event(hooks, event: RunnerEvent) -> None:
    """Deliver one event to a hook object (duck-typed, methods optional)."""
    handler = getattr(hooks, _SPECIFIC_HANDLER.get(event.kind, ""), None)
    if handler is not None:
        handler(event)
    catch_all = getattr(hooks, "on_event", None)
    if catch_all is not None:
        catch_all(event)


def close_hooks(hooks) -> None:
    """Close every hook, shielding each from the others' failures.

    Runner teardown must release every owned resource even when one
    hook's ``close()`` raises (and must not mask an in-flight
    exception), so failures downgrade to ``RuntimeWarning``.  Hooks
    without a ``close`` method are fine — the protocol is duck-typed.
    """
    for hook in hooks:
        close = getattr(hook, "close", None)
        if close is None:
            continue
        try:
            close()
        except Exception as error:
            warnings.warn(
                f"ignoring failure closing hook {hook!r}: {error!r}",
                RuntimeWarning,
                stacklevel=2,
            )


class EventLogWriter(RunnerHooks):
    """Append every event as one JSON line to ``events.jsonl``.

    Lines are flushed per event so the log survives a hard kill with at
    most the in-flight event lost — that is what makes it useful for
    diagnosing interrupted runs (:func:`read_event_log` skips a
    truncated tail for the same reason).  Usable as a context manager
    (``with EventLogWriter(path) as log: ...``) so the handle closes on
    any exit path.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def on_event(self, event: RunnerEvent) -> None:
        # One write() call per event, not a json.dump stream: the handle
        # is append-mode (O_APPEND), so a single write keeps concurrent
        # appenders — cooperating work-stealing workers share this file —
        # from interleaving fragments of each other's lines.
        self._handle.write(
            json.dumps(event.to_json(), separators=(",", ":")) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def read_event_log(path: str | os.PathLike, *, strict: bool = False) -> list[dict]:
    """Parse an ``events.jsonl`` file back into event dicts.

    A hard kill can truncate the final line mid-write; since the log's
    whole purpose is diagnosing exactly such runs, the parseable prefix
    is returned and the partial tail skipped.  Reading stops at the
    first unparseable line (any line after it belongs to a corrupt
    region, not the prefix the contract promises).  ``strict=True``
    restores the raising behaviour for integrity checks.
    """
    events = []
    with open(Path(path), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
                break
    return events


class ProgressRenderer(RunnerHooks):
    """Terminal progress line: shards, trials, rate, ETA, utilization.

    On a TTY the line redraws in place (carriage return); on a plain
    stream (CI logs, pipes) it prints at most one line per
    ``min_interval`` seconds plus start/finish lines, so logs stay
    readable.
    """

    def __init__(self, stream=None, min_interval: float = 2.0):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        # None, not 0.0: time.monotonic() starts near zero on a freshly
        # booted machine, so an epoch sentinel would throttle the very
        # first progress line.
        self._last_emit: float | None = None
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())

    def _line(self, event: RunnerEvent) -> str:
        parts = [
            f"shard {event.shards_done}/{event.shards_total}",
            f"trials {event.trials_done}/{event.trials_total}",
        ]
        if event.trials_per_sec:
            parts.append(f"{event.trials_per_sec:,.0f} trials/s")
        if event.eta_seconds is not None:
            parts.append(f"ETA {format_duration(event.eta_seconds)}")
        if event.utilization is not None and event.jobs > 1:
            parts.append(f"util {event.utilization:.0%} of {event.jobs} workers")
        return " · ".join(parts)

    def on_run_start(self, event: RunnerEvent) -> None:
        label = event.detail.get("label") or event.detail.get("target", "campaign")
        resumed = event.detail.get("resumed_shards", 0)
        note = f" (resuming past {resumed} shard(s))" if resumed else ""
        print(
            f"[campaign] {label}: {event.shards_total} shard(s), "
            f"{event.trials_total} trial(s), jobs={event.jobs}{note}",
            file=self.stream,
        )

    def on_shard_finish(self, event: RunnerEvent) -> None:
        now = time.monotonic()
        done = event.shards_done >= event.shards_total
        if (not done and not self._is_tty and self._last_emit is not None
                and now - self._last_emit < self.min_interval):
            return
        self._last_emit = now
        text = "[campaign] " + self._line(event)
        if self._is_tty and not done:
            print("\r" + text, end="", file=self.stream, flush=True)
        else:
            if self._is_tty:
                print("\r", end="", file=self.stream)
            print(text, file=self.stream)

    def on_shard_error(self, event: RunnerEvent) -> None:
        if self._is_tty:
            print("\r", end="", file=self.stream)
        verb = {
            "shard_retry": "retrying",
            "shard_fallback": "falling back in-process",
            "shard_hung": "stalled; killing worker and requeuing",
            "shard_quarantined": "corrupt on disk; quarantined for recompute",
        }.get(event.kind, "failed")
        print(
            f"[campaign] shard bit={event.bit} attempt {event.attempt}: "
            f"{verb} ({event.error})",
            file=self.stream,
        )

    def on_run_finish(self, event: RunnerEvent) -> None:
        if self._is_tty:
            print("\r", end="", file=self.stream)
        if event.kind == "run_interrupted":
            print(
                f"[campaign] interrupted at {event.shards_done}/{event.shards_total} "
                "shard(s); completed shards are persisted and the run is resumable",
                file=self.stream,
            )
        else:
            print(
                f"[campaign] done: {event.trials_done} trials "
                f"in {format_duration(event.elapsed)}",
                file=self.stream,
            )
