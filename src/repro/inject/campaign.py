"""The fault-injection campaign engine (the paper's Figure 8).

A campaign executes, for each bit position of the target format, a fixed
number of trials; each trial flips that bit in one randomly selected
element and records error metrics.  The paper runs 313 trials per bit
position x 32 bits ~= 10,000 trials per dataset field.

Flow (matching the flowchart):

1. load the field into an array;
2. compute baseline summary statistics;
3. seed the RNG for reproducibility;
4. for every bit position, for every trial: pick a random element, copy
   the data (conceptually — we never materialize the faulty array, see
   :mod:`repro.metrics.fast`), build the one-hot mask, XOR it in the
   target representation, convert back, compute metrics;
5. log every trial as a CSV row.

Storage model: the array is considered *stored in the target format* —
the baseline is the round-tripped (representable) data, so error metrics
isolate the flip from the float->posit conversion error.  The conversion
error itself is reported separately in :attr:`CampaignResult.conversion`
(the paper measures it at ~1e-5 relative for posit32 and excludes it the
same way).

Determinism: the seed expands into one independent child seed per bit
position via ``SeedSequence.spawn``, so results are bit-identical whether
bits run serially, in any order, or across processes
(:mod:`repro.inject.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats import NumberFormat
from repro.inject.faultspec import DEFAULT_FAULT_SPEC, canonical_fault_spec, resolve_fault
from repro.inject.results import TrialRecords
from repro.inject.trial import run_bit_trials
from repro.metrics.summary import SummaryStats
from repro.telemetry import get_telemetry

#: The paper's trial count per bit position.
PAPER_TRIALS_PER_BIT = 313


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a fault-injection campaign.

    Attributes
    ----------
    trials_per_bit:
        Trials per bit position (paper: 313).
    bits:
        Bit positions to flip; None means every bit of the target.
    seed:
        Root seed; campaigns with equal seeds are bit-identical.
    fault:
        Fault-model spec (see :mod:`repro.inject.faultspec`); stored in
        canonical form.  The default ``single`` is the paper's model and
        keeps runs byte-identical to pre-fault-dimension campaigns.
    """

    trials_per_bit: int = PAPER_TRIALS_PER_BIT
    bits: tuple[int, ...] | None = None
    seed: int = 2023
    fault: str = DEFAULT_FAULT_SPEC

    def __post_init__(self) -> None:
        if self.trials_per_bit <= 0:
            raise ValueError(f"trials_per_bit must be positive, got {self.trials_per_bit}")
        object.__setattr__(self, "fault", canonical_fault_spec(self.fault))

    def resolved_bits(self, target: NumberFormat) -> tuple[int, ...]:
        """The concrete bit list for a target."""
        if self.bits is None:
            return tuple(range(target.nbits))
        for bit in self.bits:
            if not 0 <= bit < target.nbits:
                raise ValueError(f"bit {bit} out of range for {target.name}")
        return tuple(self.bits)


@dataclass(frozen=True)
class ConversionReport:
    """Float -> target -> float conversion error over the dataset.

    The paper reports the analogous number for SoftPosit's double
    conversion (~1e-5 relative) and removes it from the experiment; this
    report documents how representable the data is in the target format.
    """

    mean_relative_error: float
    max_relative_error: float
    exact_fraction: float


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    target_name: str
    config: CampaignConfig
    baseline: SummaryStats
    records: TrialRecords
    conversion: ConversionReport
    data_size: int
    label: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def trial_count(self) -> int:
        return len(self.records)


def conversion_report(data, stored) -> ConversionReport:
    """Measure the representation error of ``data`` stored as ``stored``.

    ``stored`` holds the representable value of each element of
    ``data`` in the target format: the campaign's
    :class:`~repro.inject.trial.FieldPipeline` store.
    """
    raw = np.asarray(data, dtype=np.float64).reshape(-1)
    stored = np.asarray(stored).reshape(-1)
    # |(raw - stored) / raw| in place; a zero raw value gives a finite
    # error (0.0) only when it is stored as zero.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = np.subtract(raw, stored)
        np.abs(np.divide(rel, raw, out=rel), out=rel)
        rel[(raw == 0) & (stored == 0)] = 0.0
        finite = rel[np.isfinite(rel)]
        return ConversionReport(
            mean_relative_error=float(np.mean(finite)) if finite.size else 0.0,
            max_relative_error=float(np.max(finite)) if finite.size else 0.0,
            exact_fraction=float(np.mean(stored == raw)),
        )


def bit_seeds(config: CampaignConfig, target: NumberFormat) -> dict[int, np.random.SeedSequence]:
    """One independent child seed per bit position.

    Children are spawned for *all* bits of the target in bit order, then
    filtered, so a campaign over a subset of bits reproduces the same
    per-bit streams as the full campaign.
    """
    children = np.random.SeedSequence(config.seed).spawn(target.nbits)
    wanted = set(config.resolved_bits(target))
    return {bit: children[bit] for bit in range(target.nbits) if bit in wanted}


def run_campaign(
    data,
    target: NumberFormat | str,
    config: CampaignConfig | None = None,
    label: str = "",
    *,
    jobs: int | None = 1,
    executor=None,
    run_dir=None,
    hooks=None,
    progress: bool = False,
    resume: bool = False,
    dataset: dict | None = None,
    max_retries: int = 2,
    heartbeat_timeout: float | None = None,
    chaos=None,
    telemetry=None,
    trace=None,
) -> CampaignResult:
    """Run a full campaign (see module docstring for the flow).

    The one campaign entry point: serial by default, parallel with
    ``jobs=N`` (``None`` auto-sizes to the CPU count), resumable and
    observable when given a ``run_dir``.  Results are bit-identical for
    any ``jobs`` value and across interrupt/resume cycles — per-bit
    ``SeedSequence.spawn`` children make the trial streams independent
    of scheduling.

    Parameters beyond the campaign itself (all keyword-only):

    jobs:
        Worker processes; ``1`` stays in-process.  Zero or negative
        values raise ``ValueError``; values above the shard count are
        capped with a warning.
    executor:
        Execution mechanism: ``None`` picks serial or pool from ``jobs``
        (the historical behaviour); ``"serial"``, ``"pool"`` or
        ``"work-stealing"`` select an executor from
        :data:`repro.runner.executors.EXECUTOR_REGISTRY`; an
        :class:`repro.runner.executors.Executor` instance is used as-is.
        Results are bit-identical across executors for a fixed seed.
    run_dir:
        Directory receiving shard records, a JSON run manifest, and a
        JSONL event log; enables ``resume=True`` and the
        ``posit-resiliency campaign resume/status`` commands.
    hooks / progress:
        Event consumers (:mod:`repro.runner.events`); ``progress=True``
        attaches a terminal progress renderer.
    resume:
        Continue a partial run in ``run_dir`` instead of starting over.
    dataset:
        Optional provenance mapping stored in the manifest so a resume
        can regenerate the data (the CLI records its preset here).
    max_retries:
        Per-shard retry budget before degrading to in-process execution
        (parallel runs) or failing (serial runs).
    heartbeat_timeout:
        Stall detection for pool runs, measured from the moment a worker
        claims a shard: a claimed shard unfinished for longer than this
        has its worker killed and the shard requeued.  Dead workers are
        detected immediately either way.
    chaos:
        Optional :class:`repro.chaos.FaultPlan` injecting infrastructure
        faults into the run (testing the harness itself; see
        ``docs/robustness.md``).
    telemetry:
        Profiling control (see :func:`repro.telemetry.resolve_collector`):
        ``None`` follows the ``REPRO_TELEMETRY`` environment variable,
        ``True`` profiles this run (writing ``telemetry.json`` into
        ``run_dir`` and attaching the merged snapshot to
        ``result.extras["telemetry"]``), ``False`` forces it off, and a
        :class:`repro.telemetry.Telemetry` instance aggregates across
        several runs.
    trace:
        Distributed tracing + time-series metrics control (see
        :func:`repro.telemetry.resolve_trace`): ``None`` follows
        ``REPRO_TRACE``, ``True`` makes every process of this run append
        span records to ``<run_dir>/trace/`` and metric points to
        ``<run_dir>/metrics/``.  Purely side-channel — shard CSVs are
        byte-identical with tracing on or off.
    """
    from repro.runner import CampaignRunner

    runner = CampaignRunner(
        data,
        target,
        config,
        label=label,
        jobs=jobs,
        executor=executor,
        run_dir=run_dir,
        hooks=hooks,
        progress=progress,
        dataset=dataset,
        max_retries=max_retries,
        heartbeat_timeout=heartbeat_timeout,
        chaos=chaos,
        telemetry=telemetry,
        trace=trace,
    )
    return runner.run(resume=resume)


def run_campaign_shard(
    data: np.ndarray,
    target: NumberFormat,
    bit: int,
    trials: int,
    seed: np.random.SeedSequence,
    baseline: SummaryStats,
    fault_spec: str = DEFAULT_FAULT_SPEC,
) -> TrialRecords:
    """All trials of one bit position (the unit of parallel work).

    ``data`` is the field's :class:`~repro.inject.trial.FieldPipeline`
    (the runner's shard job passes the one it built), or the field as
    an array, raw or already stored, which gets a pipeline of its own
    (:func:`repro.inject.trial.field_pipeline`).  ``fault_spec`` names the
    fault model (:mod:`repro.inject.faultspec`); the default ``single``
    takes exactly the historical path — same RNG stream, same records,
    no ``fault_spec`` CSV column.
    """
    fault = None
    spec_label = None
    if fault_spec != DEFAULT_FAULT_SPEC:
        resolved = resolve_fault(fault_spec)
        if not resolved.is_default:
            fault = resolved.for_bit(bit, target.nbits)
            spec_label = resolved.spec
    telemetry = get_telemetry()
    if not telemetry.enabled:
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, data.size, size=trials)
        return run_bit_trials(
            data, indices, bit, target, baseline,
            rng=rng, fault=fault, fault_spec=spec_label,
        )
    with telemetry.span("inject.shard"):
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, data.size, size=trials)
        records = run_bit_trials(
            data, indices, bit, target, baseline,
            rng=rng, fault=fault, fault_spec=spec_label,
        )
    telemetry.count("inject.shards")
    return records
