"""Core telemetry primitives: counters, spans, snapshots, collectors.

A :class:`Telemetry` collector aggregates two kinds of signal:

* **counters** — monotonically accumulated numbers ("trials executed",
  "values decoded"), added with :meth:`Telemetry.count`;
* **spans** — named timed regions entered via the
  :meth:`Telemetry.span` context manager or the :meth:`Telemetry.timed`
  decorator.  Spans nest freely; each name aggregates count / total /
  min / max wall time (``perf_counter_ns``).

The design goals mirror the campaign's execution model:

* **near-zero cost when off** — the module-level :data:`DISABLED`
  collector is a shared no-op whose ``span`` returns one reusable
  null context manager; instrumented hot paths guard with
  ``if telemetry.enabled`` so a disabled run pays one attribute read
  per *vectorized batch*, not per trial (see ``bench_telemetry.py``);
* **mergeable** — a :class:`TelemetrySnapshot` is a frozen copy of a
  collector that merges associatively (counters add, span stats
  combine) in any order, so fork-pool workers profile their own
  shards and ship deltas back to the runner;
* **scoped** — :func:`telemetry_scope` installs a collector as the
  process-wide active one; instrumented library code always reports to
  :func:`get_telemetry` and never needs a handle threaded through.

Enablement resolves in order: an explicit collector / boolean passed to
``run_campaign(..., telemetry=...)`` (or the CLI ``--profile`` flag),
else the ``REPRO_TELEMETRY`` environment variable (``1/true/on`` to
enable, ``0/false/off`` to disable), else **off**.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field

#: Environment variable controlling the default collector.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

_TRUTHY = frozenset({"1", "true", "on", "yes", "enabled"})
_FALSY = frozenset({"0", "false", "off", "no", "disabled", ""})


def telemetry_enabled_by_env() -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for telemetry (default: off)."""
    raw = os.environ.get(TELEMETRY_ENV_VAR, "").strip().lower()
    if raw in _TRUTHY:
        return True
    if raw in _FALSY:
        return False
    raise ValueError(
        f"unrecognized {TELEMETRY_ENV_VAR}={raw!r}; use 1/true/on or 0/false/off"
    )


@dataclass
class SpanStats:
    """Aggregated wall-time statistics of one named span.

    ``total_ns`` is inclusive wall time; ``self_ns`` is exclusive time —
    the region minus any *nested* recorded spans — so summing the
    ``self_ns`` of every span never double-counts and reconciles with
    the outermost span's ``total_ns`` (the per-phase report relies on
    this).
    """

    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    min_ns: int = 0
    max_ns: int = 0

    def record(self, elapsed_ns: int, self_ns: int | None = None) -> None:
        if self.count == 0:
            self.min_ns = self.max_ns = elapsed_ns
        else:
            if elapsed_ns < self.min_ns:
                self.min_ns = elapsed_ns
            if elapsed_ns > self.max_ns:
                self.max_ns = elapsed_ns
        self.count += 1
        self.total_ns += elapsed_ns
        self.self_ns += elapsed_ns if self_ns is None else self_ns

    def merge(self, other: "SpanStats") -> "SpanStats":
        """Combine with another span's stats (associative, like Chan merge)."""
        if other.count:
            if self.count == 0:
                self.min_ns, self.max_ns = other.min_ns, other.max_ns
            else:
                self.min_ns = min(self.min_ns, other.min_ns)
                self.max_ns = max(self.max_ns, other.max_ns)
            self.count += other.count
            self.total_ns += other.total_ns
            self.self_ns += other.self_ns
        return self

    def copy(self) -> "SpanStats":
        return SpanStats(self.count, self.total_ns, self.self_ns, self.min_ns, self.max_ns)

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_seconds(self) -> float:
        return self.self_ns / 1e9

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SpanStats":
        return cls(
            count=int(payload["count"]),
            total_ns=int(payload["total_ns"]),
            self_ns=int(payload.get("self_ns", payload["total_ns"])),
            min_ns=int(payload.get("min_ns", 0)),
            max_ns=int(payload.get("max_ns", 0)),
        )


@dataclass
class TelemetrySnapshot:
    """A frozen, mergeable copy of a collector's state.

    Snapshots are what cross process boundaries: each pool worker
    profiles its shard into a private collector, snapshots it, and the
    runner merges the shipped snapshots into the campaign-wide picture.
    Merging is associative and commutative for counters and span
    counts/totals, so the reduced result is independent of worker
    scheduling — the property the ``jobs=1`` vs ``jobs=N`` equivalence
    test asserts.
    """

    counters: dict[str, float] = field(default_factory=dict)
    spans: dict[str, SpanStats] = field(default_factory=dict)

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Fold another snapshot into this one (in place; returns self)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, stats in other.spans.items():
            mine = self.spans.get(name)
            if mine is None:
                self.spans[name] = stats.copy()
            else:
                mine.merge(stats)
        return self

    @property
    def empty(self) -> bool:
        return not self.counters and not self.spans

    def span_total_seconds(self, name: str) -> float:
        """Total seconds spent in a span (0.0 when never entered)."""
        stats = self.spans.get(name)
        return stats.total_seconds if stats else 0.0

    def phase_seconds(self) -> dict[str, float]:
        """Exclusive seconds grouped by the first dotted name component.

        Built from each span's *self* time, so nested spans never
        double-count: ``inject.shard`` covers its nested
        ``formats.decode`` calls, but only the shard-loop overhead lands
        in the ``inject`` phase while the codec time lands in
        ``formats``.  The phase values therefore sum to (at most) the
        outermost span's total.
        """
        phases: dict[str, float] = {}
        for name, stats in self.spans.items():
            phase = name.split(".", 1)[0]
            phases[phase] = phases.get(phase, 0.0) + stats.self_seconds
        return phases

    def to_json(self) -> dict:
        return {
            "version": 1,
            "counters": dict(sorted(self.counters.items())),
            "spans": {
                name: self.spans[name].to_json() for name in sorted(self.spans)
            },
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TelemetrySnapshot":
        return cls(
            counters={
                str(name): value for name, value in payload.get("counters", {}).items()
            },
            spans={
                str(name): SpanStats.from_json(stats)
                for name, stats in payload.get("spans", {}).items()
            },
        )


class _Span:
    """Context manager timing one region into its collector.

    Spans nest: a per-thread stack attributes each span's elapsed time
    to its parent's child total, so exclusive (self) time falls out at
    exit without any bookkeeping in the instrumented code.
    """

    __slots__ = ("_telemetry", "_name", "_start", "_child_ns")

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name
        self._start = 0
        self._child_ns = 0

    def __enter__(self) -> "_Span":
        stack = self._telemetry._span_stack()
        stack.append(self)
        self._child_ns = 0
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter_ns() - self._start
        stack = self._telemetry._span_stack()
        if stack and stack[-1] is self:
            stack.pop()
            if stack:
                stack[-1]._child_ns += elapsed
        self._telemetry._record_span(self._name, elapsed, elapsed - self._child_ns)


class _NullSpan:
    """Reusable no-op span handed out by the disabled collector."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Telemetry:
    """A live, thread-safe collector of counters and spans."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._spans: dict[str, SpanStats] = {}
        self._tls = threading.local()

    def _span_stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- recording -------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        value = int(value) if float(value).is_integer() else float(value)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def span(self, name: str) -> _Span:
        """A context manager timing the enclosed region under ``name``."""
        return _Span(self, name)

    def timed(self, name: str):
        """Decorator form of :meth:`span`."""

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    def _record_span(self, name: str, elapsed_ns: int, self_ns: int) -> None:
        with self._lock:
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = SpanStats()
            stats.record(elapsed_ns, self_ns)

    # -- reading / reducing ----------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """A frozen copy of the current state (safe to ship/merge)."""
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                spans={name: s.copy() for name, s in self._spans.items()},
            )

    def merge_snapshot(self, snapshot: TelemetrySnapshot) -> None:
        """Fold a worker's shipped snapshot into this collector."""
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, stats in snapshot.spans.items():
                mine = self._spans.get(name)
                if mine is None:
                    self._spans[name] = stats.copy()
                else:
                    mine.merge(stats)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._spans.clear()


class _NullTelemetry:
    """The disabled collector: every operation is a cheap no-op."""

    enabled = False

    def count(self, name: str, value: float = 1) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def timed(self, name: str):
        return lambda func: func

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot()

    def merge_snapshot(self, snapshot: TelemetrySnapshot) -> None:
        pass

    def reset(self) -> None:
        pass


#: The shared no-op collector (what ``get_telemetry`` returns when off).
DISABLED = _NullTelemetry()

# The active-collector stack.  The base entry reflects the environment;
# telemetry_scope() pushes run-scoped collectors on top.  Guarded by a
# lock only for push/pop — reads are a plain list index, which is atomic
# in CPython and keeps get_telemetry() off the hot path's critical path.
_STACK_LOCK = threading.Lock()
_STACK: list = [Telemetry() if telemetry_enabled_by_env() else DISABLED]


def get_telemetry():
    """The active collector (a :class:`Telemetry` or :data:`DISABLED`)."""
    return _STACK[-1]


def set_default_telemetry(collector) -> None:
    """Replace the base (process-default) collector."""
    with _STACK_LOCK:
        _STACK[0] = collector


def _reset_process_stack(collector) -> None:
    """Forget every active scope and install ``collector`` as the base.

    For forked worker initializers: the child inherits the parent's
    scope stack, but recording into those collectors would be lost with
    the process — workers must start from a clean slate.
    """
    with _STACK_LOCK:
        _STACK[:] = [collector]


class telemetry_scope:
    """Install ``collector`` as the active one for a ``with`` block.

    Scopes nest; leaving the block restores the previous collector.
    Usable from worker processes (each process has its own stack).
    """

    def __init__(self, collector):
        self.collector = collector

    def __enter__(self):
        with _STACK_LOCK:
            _STACK.append(self.collector)
        return self.collector

    def __exit__(self, exc_type, exc, tb) -> None:
        with _STACK_LOCK:
            # Remove the highest occurrence of our collector rather than
            # blindly popping: overlapping scopes from racing threads
            # must not evict each other's collectors.
            for i in range(len(_STACK) - 1, 0, -1):
                if _STACK[i] is self.collector:
                    del _STACK[i]
                    break


def resolve_collector(telemetry=None):
    """Normalize the ``telemetry=`` argument of campaign entry points.

    ``None``
        follow the environment (``REPRO_TELEMETRY``);
    ``True`` / ``False``
        a fresh enabled collector / the shared disabled one;
    a collector instance
        used as-is (lets callers aggregate across several runs).
    """
    if telemetry is None:
        return Telemetry() if telemetry_enabled_by_env() else DISABLED
    if telemetry is True:
        return Telemetry()
    if telemetry is False:
        return DISABLED
    if hasattr(telemetry, "span") and hasattr(telemetry, "snapshot"):
        return telemetry
    raise TypeError(
        f"telemetry must be None, a bool, or a Telemetry collector, got {telemetry!r}"
    )
