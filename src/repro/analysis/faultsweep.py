"""Fault-model-aware aggregation and detector/protector co-design replay.

A swept campaign (``campaign sweep --formats ... --faults ...``) leaves
one run per (format x fault model) cell, each shard CSV stamped with its
canonical fault spec.  This module turns those records into the two
deliverables the sweep exists for:

* **per-model aggregation** — the same per-bit / whole-campaign
  reductions as :mod:`repro.analysis.aggregate`, computed per fault
  model, so "how does posit32 degrade from single flips to bursts?" is
  one table;
* **protection replay under multi-bit models** — the
  :mod:`repro.protect` schemes re-evaluated with the fault model's full
  *support* (every position it may touch per trial, via
  :meth:`~repro.inject.faultspec.ResolvedFault.support`) rather than the
  single anchor bit, plus an impact-driven temporal detection reference
  point (:mod:`repro.detect.temporal` semantics), yielding the
  coverage/overhead frontier per format x fault model.

Replay semantics are *guaranteed-coverage* conservative: a correcting
scheme (TMR) neutralizes a trial only when every support position is
covered (each covered position votes independently, so covering every
possibly-flipped bit is both necessary and sufficient for a guarantee);
a detect-only scheme additionally needs the flip count to be visible —
parity misses even flip counts (see
:meth:`~repro.protect.schemes.ProtectionScheme.detects_even_flips`),
duplication catches any mismatch.  Stochastic models (``burst``,
``random``) are scored by their worst case, so reported residuals are
upper bounds — a designer reading the frontier never over-trusts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.aggregate import BitAggregate, aggregate_by_bit
from repro.inject.faultspec import DEFAULT_FAULT_SPEC, ResolvedFault, resolve_fault
from repro.inject.results import TrialRecords
from repro.protect.evaluate import ProtectionReport, ranked_bit_positions
from repro.protect.schemes import (
    FullDuplication,
    NoProtection,
    ProtectionScheme,
    SelectiveParity,
    SelectiveTMR,
)


def split_by_fault(records: TrialRecords) -> dict[str, TrialRecords]:
    """Partition records by their ``fault_spec`` column.

    Records without the column (every pre-fault-dimension CSV) are all
    ``single``; mixed concatenations — e.g. the folded output of several
    sweep cells — split into one :class:`TrialRecords` per model.
    """
    if records.fault_spec is None:
        return {DEFAULT_FAULT_SPEC: records}
    out = {}
    for spec in sorted(set(records.fault_spec.tolist())):
        out[str(spec)] = records.select(records.fault_spec == spec)
    return out


@dataclass(frozen=True)
class FaultModelSummary:
    """Whole-campaign statistics for one fault model's trials."""

    fault: str
    trial_count: int
    mean_rel_err: float
    median_rel_err: float
    serious_fraction: float
    catastrophic_fraction: float

    def as_row(self) -> list:
        return [
            self.fault,
            self.trial_count,
            self.mean_rel_err,
            self.median_rel_err,
            self.serious_fraction,
            self.catastrophic_fraction,
        ]


def summarize_by_fault(
    records: TrialRecords, serious_threshold: float = 1.0
) -> list[FaultModelSummary]:
    """One summary row per fault model present in the records."""
    out = []
    for spec, part in split_by_fault(records).items():
        rel = part.rel_err
        finite = rel[np.isfinite(rel)]
        with np.errstate(over="ignore"):
            mean = float(np.mean(finite)) if finite.size else float("nan")
        median = float(np.median(finite)) if finite.size else float("nan")
        serious = ~np.isfinite(rel) | (rel > serious_threshold)
        out.append(
            FaultModelSummary(
                fault=spec,
                trial_count=len(part),
                mean_rel_err=mean,
                median_rel_err=median,
                serious_fraction=float(np.mean(serious)) if len(part) else 0.0,
                catastrophic_fraction=(
                    float(np.mean(part.non_finite)) if len(part) else 0.0
                ),
            )
        )
    return out


def aggregate_by_fault(records: TrialRecords, nbits: int) -> dict[str, BitAggregate]:
    """Per-bit aggregation (:func:`aggregate_by_bit`) per fault model."""
    return {
        spec: aggregate_by_bit(part, nbits)
        for spec, part in split_by_fault(records).items()
    }


# -- protection replay under a fault model ----------------------------------


def _neutralized_bits(
    scheme: ProtectionScheme, resolved: ResolvedFault, bits: np.ndarray, nbits: int
) -> np.ndarray:
    """Per-anchor-bit guarantee that the scheme neutralizes the trial."""
    out = np.zeros(len(bits), dtype=bool)
    for i, bit in enumerate(np.asarray(bits, dtype=np.int64)):
        support = np.asarray(resolved.support(int(bit), nbits), dtype=np.int64)
        if not bool(np.all(scheme.covers(support))):
            continue
        if scheme.corrects() or scheme.detects_even_flips():
            out[i] = True
        else:
            out[i] = resolved.odd_flips_guaranteed(int(bit), nbits)
    return out


def evaluate_scheme_under_fault(
    records: TrialRecords,
    scheme: ProtectionScheme,
    nbits: int,
    fault: str | ResolvedFault = DEFAULT_FAULT_SPEC,
    serious_threshold: float = 1.0,
) -> ProtectionReport:
    """Residual statistics of one scheme under one fault model.

    The multi-bit generalization of
    :func:`repro.protect.evaluate.evaluate_scheme` (and identical to it
    for ``single``): a trial survives unless the scheme *guarantees*
    neutralizing it given every position the model may have touched.
    """
    if len(records) == 0:
        raise ValueError("cannot evaluate a scheme on zero trials")
    resolved = fault if isinstance(fault, ResolvedFault) else resolve_fault(fault)
    unique_bits = np.unique(records.bit)
    neutral_by_bit = dict(
        zip(
            unique_bits.tolist(),
            _neutralized_bits(scheme, resolved, unique_bits, nbits).tolist(),
        )
    )
    neutralized = np.array([neutral_by_bit[int(b)] for b in records.bit], dtype=bool)
    surviving = ~neutralized

    rel = records.rel_err
    serious = ~np.isfinite(rel) | (rel > serious_threshold)
    surviving_rel = rel[surviving]
    finite = surviving_rel[np.isfinite(surviving_rel)]
    with np.errstate(over="ignore"):
        residual_mean = float(np.mean(finite)) if finite.size else 0.0

    return ProtectionReport(
        scheme=scheme.describe(),
        overhead_bits=scheme.overhead_bits(nbits),
        overhead_fraction=scheme.overhead_fraction(nbits),
        covered_fraction=float(np.mean(neutralized)),
        residual_serious_fraction=float(np.mean(serious & surviving)),
        residual_catastrophic_fraction=float(np.mean(records.non_finite & surviving)),
        residual_mean_rel_err=residual_mean,
        baseline_serious_fraction=float(np.mean(serious)),
    )


def temporal_detection_report(
    records: TrialRecords,
    nbits: int,
    theta: float = 8.0,
    update_scale: float | None = None,
    serious_threshold: float = 1.0,
) -> ProtectionReport:
    """Impact-driven detection as a zero-storage frontier reference.

    Models :class:`repro.detect.temporal.LinearExtrapolationDetector`
    applied to the recorded trials: the detector flags an element whose
    prediction residual exceeds ``theta`` times the adaptive update
    scale, and a flipped stored value shifts the residual by exactly the
    trial's absolute error — so a trial is detected iff its faulty value
    is non-finite or its absolute error exceeds ``theta * update_scale``.
    ``update_scale`` defaults to the per-trial original magnitudes'
    median (a stand-in for the solver's typical sweep update).  Storage
    overhead is zero; the cost is compute-side, which the frontier's
    overhead axis deliberately scores as free.
    """
    if len(records) == 0:
        raise ValueError("cannot evaluate detection on zero trials")
    if update_scale is None:
        magnitudes = np.abs(records.original)
        finite = magnitudes[np.isfinite(magnitudes) & (magnitudes > 0)]
        update_scale = float(np.median(finite)) if finite.size else 1.0
    threshold = float(theta) * float(update_scale)
    detected = records.non_finite | ~np.isfinite(records.abs_err) | (
        records.abs_err > threshold
    )
    surviving = ~detected

    rel = records.rel_err
    serious = ~np.isfinite(rel) | (rel > serious_threshold)
    surviving_rel = rel[surviving]
    finite_rel = surviving_rel[np.isfinite(surviving_rel)]
    with np.errstate(over="ignore"):
        residual_mean = float(np.mean(finite_rel)) if finite_rel.size else 0.0

    return ProtectionReport(
        scheme=f"temporal[theta={theta:g}]",
        overhead_bits=0,
        overhead_fraction=0.0,
        covered_fraction=float(np.mean(detected)),
        residual_serious_fraction=float(np.mean(serious & surviving)),
        residual_catastrophic_fraction=float(np.mean(records.non_finite & surviving)),
        residual_mean_rel_err=residual_mean,
        baseline_serious_fraction=float(np.mean(serious)),
    )


@dataclass(frozen=True)
class FrontierCell:
    """The coverage/overhead frontier of one (format x fault model) cell."""

    target: str
    fault: str
    nbits: int
    trial_count: int
    #: Top-k selective-TMR reports for k = 0..max_protected (data-ranked).
    tmr: tuple[ProtectionReport, ...]
    #: Reference points: data-ranked selective parity over the same top-k
    #: positions as the best TMR rung, full duplication, and temporal
    #: detection.
    parity: ProtectionReport
    duplication: ProtectionReport
    temporal: ProtectionReport

    def bits_needed_for_reduction(self, reduction: float = 0.99) -> int:
        """Smallest TMR k reaching the target serious-SDC reduction.

        Returns ``nbits + 1`` when no rung reaches it — under multi-bit
        models even full TMR may fail the conservative guarantee (e.g. a
        ``random(k)`` trial needs every word bit covered, which full TMR
        does supply, but a detect-only rung never corrects).
        """
        for k, report in enumerate(self.tmr):
            if report.serious_reduction >= reduction:
                return k
        return self.nbits + 1


def fault_frontier(
    records: TrialRecords,
    target_name: str,
    nbits: int,
    fault: str | ResolvedFault = DEFAULT_FAULT_SPEC,
    serious_threshold: float = 1.0,
    max_protected: int | None = None,
    parity_bits: int | None = None,
    theta: float = 8.0,
) -> FrontierCell:
    """The full protection/detection frontier of one campaign cell.

    ``parity_bits`` sizes the selective-parity reference (default: the
    same top quarter of positions the TMR ranking puts first).
    """
    resolved = fault if isinstance(fault, ResolvedFault) else resolve_fault(fault)
    if max_protected is None:
        max_protected = nbits
    ranked = ranked_bit_positions(records, nbits, serious_threshold)
    reports = []
    for k in range(0, max_protected + 1):
        scheme: ProtectionScheme
        if k == 0:
            scheme = NoProtection()
        else:
            scheme = SelectiveTMR(tuple(sorted(ranked[:k], reverse=True)))
        reports.append(
            evaluate_scheme_under_fault(
                records, scheme, nbits, resolved, serious_threshold
            )
        )
    if parity_bits is None:
        parity_bits = max(nbits // 4, 1)
    parity = evaluate_scheme_under_fault(
        records,
        SelectiveParity(tuple(sorted(ranked[:parity_bits], reverse=True))),
        nbits,
        resolved,
        serious_threshold,
    )
    duplication = evaluate_scheme_under_fault(
        records, FullDuplication(), nbits, resolved, serious_threshold
    )
    temporal = temporal_detection_report(
        records, nbits, theta=theta, serious_threshold=serious_threshold
    )
    return FrontierCell(
        target=target_name,
        fault=resolved.spec,
        nbits=nbits,
        trial_count=len(records),
        tmr=tuple(reports),
        parity=parity,
        duplication=duplication,
        temporal=temporal,
    )


def sweep_frontier(
    cells,
    serious_threshold: float = 1.0,
    max_protected: int | None = None,
    theta: float = 8.0,
) -> list[FrontierCell]:
    """Frontiers for a whole sweep: ``cells`` yields (target, records).

    Each entry's records are split by their ``fault_spec`` column, so
    passing one folded :class:`TrialRecords` per format covers every
    fault model it contains; the result is one :class:`FrontierCell` per
    (format x fault model), the sweep's designer-facing deliverable.
    """
    from repro.formats import resolve

    out = []
    for target, records in cells:
        fmt = resolve(target) if isinstance(target, str) else target
        for spec, part in split_by_fault(records).items():
            out.append(
                fault_frontier(
                    part,
                    fmt.name,
                    fmt.nbits,
                    spec,
                    serious_threshold=serious_threshold,
                    max_protected=max_protected,
                    theta=theta,
                )
            )
    return out


def frontier_from_run_dir(run_dir, **kwargs) -> FrontierCell:
    """The frontier of one completed campaign run directory.

    Reads the manifest for the cell's identity (format, fault model) and
    every completed shard through
    :func:`repro.runner.verify.load_run_records`, so an untrusted shard
    raises instead of entering the frontier; keyword arguments pass
    through to :func:`fault_frontier`.
    """
    from repro.formats import resolve
    from repro.runner.manifest import RunManifest
    from repro.runner.verify import load_run_records

    manifest = RunManifest.load(run_dir)
    fmt = resolve(manifest.target_spec)
    records = load_run_records(run_dir)
    return fault_frontier(records, fmt.name, fmt.nbits, manifest.fault, **kwargs)
