"""The benchmark's four workloads: inputs from a seed, a timed body, checks.

Every workload drives the public API only -- ``run_campaign`` or
``run_app_campaign``, then ``verify_run`` on each persisted run
directory -- exactly as a user of the library or the CLI would.  Shapes
are plain dataclasses so the smoke test can pass a tiny one as a
function argument.
"""

from __future__ import annotations

import hashlib
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from repro.apps.campaign import AppCampaignConfig, run_app_campaign
from repro.datasets.presets import DEFAULT_SIZE
from repro.datasets.registry import get as get_preset
from repro.formats import resolve
from repro.inject.campaign import PAPER_TRIALS_PER_BIT, CampaignConfig, run_campaign
from repro.runner import RunnerHooks, verify_run
from repro.telemetry import (
    METRICS_DIR_NAME,
    TELEMETRY_FILE_NAME,
    TRACE_DIR_NAME,
    WORKER_TELEMETRY_DIR_NAME,
)

from benchmarks.e2e.layers import (
    APPS,
    BIGFIELD,
    BODY,
    PARALLEL,
    PERSIST,
    NullTracer,
    Tracer,
    installed,
    unfired,
)

FORMATS = ("posit32", "ieee32")

#: Six Table-1 fields spanning the magnitude regimes that matter to a
#: posit: |x| << 1 (cloud, omega), |x| >> 1 (vx, pf48, temperature) and
#: a heavy tail over many decades (dark-matter density).
SIX_PRESETS = (
    "cesm/cloud",
    "cesm/omega",
    "hacc/vx",
    "hurricane/pf48",
    "nyx/dark-matter-density",
    "nyx/temperature",
)

#: Worker processes of the parallel workload: the machine's two cores.
PARALLEL_JOBS = 2


@dataclass(frozen=True)
class CampaignShape:
    """A value-campaign set: every preset field x every format."""

    presets: tuple[str, ...]
    #: Elements per field; ``None`` is the preset default (2^20).
    size: int | None = 1 << 13
    formats: tuple[str, ...] = FORMATS
    trials: int = PAPER_TRIALS_PER_BIT
    #: ``None`` flips every bit of the format.
    bits: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AppShape:
    """An app-campaign set: every solver x every format."""

    apps: tuple[str, ...] = ("cg", "jacobi")
    formats: tuple[str, ...] = FORMATS
    grid: int = 10
    iterations: tuple[int, ...] = (3, 10)
    trials_per_cell: int = 1
    bits: tuple[int, ...] = tuple(range(0, 32, 2))


SHAPES = {
    PERSIST: CampaignShape(SIX_PRESETS),
    BIGFIELD: CampaignShape(("cesm/cloud", "hacc/vx"), size=None),
    PARALLEL: CampaignShape(SIX_PRESETS),
    APPS: AppShape(),
}


class ShardClock(RunnerHooks):
    """Per campaign, the gaps between consecutive ``shard_finish`` events.

    A campaign's first gap is measured from its ``run_start``.
    """

    def __init__(self) -> None:
        self.gaps: list[list[float]] = []
        self._last: float | None = None

    def on_run_start(self, event) -> None:
        if event.kind == "run_start":
            self.gaps.append([])
            self._last = time.perf_counter()

    def on_shard_finish(self, event) -> None:
        if event.kind == "shard_finish" and self._last is not None:
            now = time.perf_counter()
            self.gaps[-1].append(now - self._last)
            self._last = now


#: Dtype every record column is hashed as, by NumPy kind, so a change of
#: in-memory column width alone does not move the digest.
_CANONICAL_DTYPE = {"b": "|b1", "i": "<i8", "u": "<i8", "f": "<f8"}


def records_digest(records) -> str:
    """sha256 over one campaign's trial records, column by column.

    Taken over the record values rather than a serialization, so a
    documented change of the shard file format (or of the CSV writer,
    whose bytes the golden tests pin) leaves it unchanged.  Floats are
    hashed as their exact IEEE bytes.
    """
    digest = hashlib.sha256()
    for column in fields(records):
        values = getattr(records, column.name)
        if values is None:
            continue
        values = np.asarray(values)
        if values.dtype.kind in "US":
            data = "\0".join(values.tolist()).encode()
        else:
            data = np.ascontiguousarray(values, _CANONICAL_DTYPE[values.dtype.kind]).tobytes()
        digest.update(f"{column.name}:{values.size}\n".encode())
        digest.update(data)
    return digest.hexdigest()


@dataclass
class Outcome:
    """What one body produced, in the fixed campaign order."""

    records: list[tuple[str, object]] = field(default_factory=list)
    #: Seconds from each campaign's start to its verified result.
    campaign_s: list[float] = field(default_factory=list)
    shards: int = 0
    trials: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, key: str, shards: int, launch, run_dir: Path | None, tracer) -> None:
        """Run one campaign (``launch()``), verify its run directory, time both."""
        self.shards += shards
        begin = time.perf_counter()
        try:
            result = launch()
        except Exception as error:
            self.reject(key, shards, error)
        else:
            self.accept(key, result)
            if run_dir is not None:
                self.verify(key, run_dir, tracer)
        self.campaign_s.append(time.perf_counter() - begin)

    def accept(self, key: str, result) -> None:
        self.records.append((key, result.records))
        self.trials += len(result.records)
        extras = result.extras
        self.failed += (
            extras["shard_retries"] + extras["shards_hung"] + extras["shards_quarantined"]
        )

    def reject(self, key: str, shards: int, error: Exception) -> None:
        self.records.append((key, None))
        self.failed += shards
        self.errors.append(f"{key}: campaign raised {error!r}")

    def verify(self, key: str, run_dir: Path, tracer) -> None:
        with tracer.span("runner.verify"):
            report = verify_run(run_dir)
        if report.errors:
            self.errors.append(f"{key}: verify_run found errors\n{report.render()}")

    def digest(self) -> str:
        """sha256 over every campaign's record digest, in campaign order."""
        total = hashlib.sha256()
        for key, records in self.records:
            part = "failed" if records is None else records_digest(records)
            total.update(f"{key}\n{part}\n".encode())
        return total.hexdigest()


def setup(seed: int, shape) -> dict:
    """Codec tables for every format, then the seeded input fields."""
    for spec in shape.formats:
        resolve(spec).round_trip(np.linspace(-1.0, 1.0, 64))
    if isinstance(shape, AppShape):
        return {}
    size = shape.size or DEFAULT_SIZE
    return {name: get_preset(name).generate(seed=seed, size=size) for name in shape.presets}


def value_campaigns(seed, shape: CampaignShape, inputs, workdir, hooks, tracer, *,
                    persist: bool, parallel: bool) -> Outcome:
    outcome = Outcome()
    options = (
        {"jobs": PARALLEL_JOBS, "telemetry": True, "trace": True} if parallel else {}
    )
    size = shape.size or DEFAULT_SIZE
    for name in shape.presets:
        for spec in shape.formats:
            config = CampaignConfig(trials_per_bit=shape.trials, bits=shape.bits, seed=seed)
            run_dir = Path(workdir) / f"{name.replace('/', '-')}-{spec}" if persist else None
            outcome.run(
                f"{name} {spec}",
                len(config.resolved_bits(resolve(spec))),
                lambda: run_campaign(
                    inputs[name], spec, config, label=name, run_dir=run_dir, hooks=hooks,
                    dataset={"kind": "preset", "field": name, "size": size, "seed": seed},
                    **options,
                ),
                run_dir,
                tracer,
            )
    return outcome


def app_campaigns(seed, shape: AppShape, workdir, hooks, tracer) -> Outcome:
    outcome = Outcome()
    for app in shape.apps:
        for spec in shape.formats:
            config = AppCampaignConfig(
                app=app, grid=shape.grid, iterations=shape.iterations,
                trials_per_cell=shape.trials_per_cell, bits=shape.bits, seed=seed,
            )
            run_dir = Path(workdir) / f"{app}-{spec}"
            outcome.run(
                f"{app} {spec}",
                len(config.cells(spec)),
                lambda: run_app_campaign(config, spec, run_dir=run_dir, hooks=hooks),
                run_dir,
                tracer,
            )
    return outcome


def body(workload: str, seed: int, shape, inputs, workdir, hooks, tracer) -> Outcome:
    if workload == APPS:
        return app_campaigns(seed, shape, workdir, hooks, tracer)
    return value_campaigns(
        seed, shape, inputs, workdir, hooks, tracer,
        persist=workload != BIGFIELD, parallel=workload == PARALLEL,
    )


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _side_channel_bytes(workdir: Path) -> int:
    names = (TRACE_DIR_NAME, METRICS_DIR_NAME, WORKER_TELEMETRY_DIR_NAME, TELEMETRY_FILE_NAME)
    return sum(
        _tree_bytes(run_dir / name)
        for run_dir in workdir.iterdir()
        for name in names
        if (run_dir / name).exists()
    )


def peak_rss_kb() -> int:
    """Peak RSS of this process or any reaped child (pool workers), in KiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_rep(workload: str, seed: int, workdir, *, traced: bool = False, shape=None,
            started: float | None = None) -> dict:
    """One rep: set up, run the timed body, check and digest its outputs.

    ``started`` is the ``time.monotonic()`` reading at which the rep's
    process was spawned (so set-up covers interpreter start and
    imports); in-process callers leave it ``None``.
    """
    if started is None:
        started = time.monotonic()
    shape = shape if shape is not None else SHAPES[workload]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if traced else NullTracer()
    clock = ShardClock()
    with installed(tracer) if traced else nullcontext():
        inputs = setup(seed, shape)
        body_start = time.monotonic()
        begin = time.perf_counter()
        with tracer.span(BODY):
            outcome = body(workload, seed, shape, inputs, workdir, clock, tracer)
        wall_s = time.perf_counter() - begin
        rss_kb = peak_rss_kb()
        if traced:
            tracer.recording = False
    report = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": body_start - started,
        "wall_s": wall_s,
        "campaign_s": outcome.campaign_s,
        "shard_gaps_s": clock.gaps,
        "shards": outcome.shards,
        "trials": outcome.trials,
        "failed": outcome.failed,
        "peak_rss_kb": rss_kb,
        "errors": list(outcome.errors),
        "digest": outcome.digest(),
    }
    if traced:
        layers = tracer.raw()
        layers["counts"]["runner.run_dir_bytes"] = _tree_bytes(workdir)
        layers["counts"]["telemetry.side_channel_bytes"] = _side_channel_bytes(workdir)
        report["layers"] = layers
        report["errors"] += [
            f"wrapper {site} never fired on {workload}; its call site moved"
            for site in unfired(layers["calls"], workload)
        ]
    return report


def setup_time(workload: str, seed: int, started: float) -> float:
    """Only a rep's set-up, for extra ``setup_s`` samples; ``started`` as in ``run_rep``."""
    setup(seed, SHAPES[workload])
    return time.monotonic() - started
