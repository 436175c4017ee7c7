"""Trial execution: inject faults into chosen elements and measure.

A :class:`FieldPipeline` is the one store of a campaign's field: it
encodes the field once into the target format, decodes those patterns
once into the stored (representable) values the baseline and the
conversion report read, and serves every bit's trials as gathers from
that store — flip/decode via ``decode_flips`` or ``decode_masked``,
field classification, metrics, and the O(1) faulty-summary fold as
elementwise expressions.  The campaign runner builds the pipeline once
and its shard job carries it, so every shard — and every forked worker,
which inherits the job — reads that one store; ``field_pipeline`` passes
a pipeline through and builds one from a raw array.

``run_single_trial`` is the one-at-a-time form mirroring the paper's
flowchart literally; the tests assert both produce identical records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inject.faults import FaultModel, SingleBitFlip
from repro.inject.results import TrialRecords
from repro.formats import NumberFormat
from repro.metrics.fast import FaultMetrics, vectorized_single_fault
from repro.metrics.pointwise import scalar_relative_error
from repro.metrics.summary import SummaryStats
from repro.telemetry import get_telemetry

@dataclass(frozen=True)
class SingleTrialResult:
    """Outcome of one fault injection (one element, one fault model)."""

    index: int
    original: float
    faulty: float
    field: int
    regime_k: int
    abs_err: float
    rel_err: float
    non_finite: bool


def run_single_trial(
    data: np.ndarray,
    index: int,
    bit_index: int,
    target: NumberFormat,
    rng: np.random.Generator | None = None,
    fault: FaultModel | None = None,
) -> SingleTrialResult:
    """Inject one fault into ``data[index]`` and measure it.

    Follows the paper's Figure 8 flow for a single trial: select the
    datum, store it in the target representation, XOR the mask, load it
    back, compare.
    """
    if fault is None:
        fault = SingleBitFlip(bit_index)
    if rng is None:
        rng = np.random.default_rng(0)
    value = np.asarray([data[index]])
    bits = target.to_bits(value)
    original = float(target.from_bits(bits)[0])
    faulty_bits = fault.apply(bits, target.nbits, rng)
    faulty = float(target.from_bits(faulty_bits)[0])
    field = int(target.classify_bits(bits, bit_index)[0])
    regime = int(target.regime_sizes(bits)[0])
    abs_err = abs(original - faulty)
    rel_err = scalar_relative_error(original, faulty)
    return SingleTrialResult(
        index=int(index),
        original=original,
        faulty=faulty,
        field=field,
        regime_k=regime,
        abs_err=abs_err,
        rel_err=rel_err,
        non_finite=bool(not np.isfinite(faulty)),
    )


class FieldPipeline:
    """The stored field of one (target, dataset) pair.

    Attributes
    ----------
    target:
        The campaign's format, which encodes and decodes the field with
        its own codec (table gathers for software layouts of at most 16
        bits, see :attr:`repro.formats.NumberFormat.backend_name`).
    data / bits / stored:
        The flat dataset as given (raw or already stored), its patterns
        in the target format (encoded exactly once), and the
        representable values those patterns decode to.
    """

    def __init__(self, target: NumberFormat, data: np.ndarray) -> None:
        self.target = target
        self.data = np.asarray(data).reshape(-1)
        self.bits = self.target.to_bits(self.data)
        self.stored = self.target.from_bits(self.bits)

    @property
    def size(self) -> int:
        """Elements in the field, as ``data.size`` of the array it stores."""
        return self.data.size

    def run_bit(
        self,
        indices: np.ndarray,
        bit_index: int,
        baseline: SummaryStats,
        rng: np.random.Generator,
        fault: FaultModel,
        fault_spec: str | None = None,
    ) -> TrialRecords:
        """One bit position's trials (the classic shard shape)."""
        indices = np.asarray(indices, dtype=np.int64)
        bits_sel = self.bits[indices]
        originals = self.stored[indices]
        if type(fault) is SingleBitFlip and fault.bit_index == bit_index:
            # The standard campaign fault never consumes the RNG, so the
            # pure-XOR batch path is stream-identical to fault.apply.
            faulty = self.target.decode_flips(bits_sel, [bit_index])[0]
        else:
            masks = fault.masks(bits_sel.shape, self.target.nbits, rng)
            faulty = self.target.decode_masked(bits_sel, masks)
        fields = self.target.classify_bits(bits_sel, bit_index)
        regimes = self.target.regime_sizes(bits_sel)
        metrics = vectorized_single_fault(baseline, originals, faulty)
        return _assemble_records(
            bit_index,
            indices,
            originals,
            faulty,
            fields,
            regimes,
            metrics,
            baseline,
            fault_spec=fault_spec,
        )


def field_pipeline(target: NumberFormat, data) -> FieldPipeline:
    """The :class:`FieldPipeline` of ``data`` in ``target``.

    ``data`` is returned as is when it already is ``target``'s pipeline;
    a raw or stored array gets a new pipeline (one encode).
    """
    if isinstance(data, FieldPipeline):
        if data.target.name != target.name:
            raise ValueError(
                f"pipeline stores its field in {data.target.name}, not {target.name}"
            )
        return data
    return FieldPipeline(target, data)


def run_bit_trials(
    data: np.ndarray,
    indices: np.ndarray,
    bit_index: int,
    target: NumberFormat,
    baseline: SummaryStats,
    rng: np.random.Generator | None = None,
    fault: FaultModel | None = None,
    fault_spec: str | None = None,
) -> TrialRecords:
    """All trials for one bit position, vectorized.

    Parameters
    ----------
    data:
        The field's :class:`FieldPipeline`, or the full dataset (float
        array, raw or already stored), which gets a pipeline of its own.
    indices:
        Element index chosen for each trial.
    bit_index:
        Bit to flip (LSB == 0); also used to label records when a custom
        ``fault`` touches several bits.
    baseline:
        Precomputed summary of ``data`` (the paper computes it once).
    fault_spec:
        Canonical fault spec to stamp into the records' ``fault_spec``
        column; ``None`` (the default single-flip campaign) leaves the
        column absent so CSVs stay byte-identical to the schema-1 form.
    """
    if fault is None:
        fault = SingleBitFlip(bit_index)
    if rng is None:
        rng = np.random.default_rng(0)
    indices = np.asarray(indices, dtype=np.int64)

    telemetry = get_telemetry()
    if not telemetry.enabled:
        return _run_bit_trials(data, indices, bit_index, target, baseline, rng, fault, fault_spec)
    with telemetry.span("inject.trial"):
        records = _run_bit_trials(
            data, indices, bit_index, target, baseline, rng, fault, fault_spec
        )
    telemetry.count("inject.trials", len(indices))
    return records


def _run_bit_trials(
    data: np.ndarray,
    indices: np.ndarray,
    bit_index: int,
    target: NumberFormat,
    baseline: SummaryStats,
    rng: np.random.Generator,
    fault: FaultModel,
    fault_spec: str | None = None,
) -> TrialRecords:
    pipeline = field_pipeline(target, data)
    return pipeline.run_bit(indices, bit_index, baseline, rng, fault, fault_spec)


def _assemble_records(
    bit_index: int,
    indices: np.ndarray,
    originals: np.ndarray,
    faulty: np.ndarray,
    fields: np.ndarray,
    regimes: np.ndarray,
    metrics: FaultMetrics,
    baseline: SummaryStats,
    fault_spec: str | None = None,
) -> TrialRecords:
    """Fold summary stats into one bit position's trial records.

    The faulty array of each trial equals the original with one
    replacement, so its sum/extremes shift by closed form (see
    ``SummaryStats.with_replacement``) — computed here once for all
    trials as elementwise expressions.
    """
    count = baseline.count
    with np.errstate(over="ignore", invalid="ignore"):
        new_total = baseline.total - originals + faulty
        faulty_mean = new_total / count
        old_dev = originals - baseline.center
        new_dev = faulty - baseline.center
        new_centered_sq = baseline.centered_sq - old_dev * old_dev + new_dev * new_dev
        mean_shift = faulty_mean - baseline.center
        variance = np.maximum(new_centered_sq / count - mean_shift * mean_shift, 0.0)
        faulty_std = np.sqrt(variance)
    surviving_max = np.where(originals == baseline.maximum, baseline.maximum2, baseline.maximum)
    surviving_min = np.where(originals == baseline.minimum, baseline.minimum2, baseline.minimum)
    faulty_max = np.fmax(surviving_max, faulty)
    faulty_min = np.fmin(surviving_min, faulty)

    trials = indices.size
    return TrialRecords(
        trial=np.arange(trials, dtype=np.int64),
        bit=np.full(trials, bit_index, dtype=np.int64),
        index=indices.copy(),
        original=np.asarray(originals, dtype=np.float64),
        faulty=np.asarray(faulty, dtype=np.float64),
        field=np.asarray(fields, dtype=np.int64),
        regime_k=np.asarray(regimes, dtype=np.int64),
        abs_err=metrics.max_abs_err,
        rel_err=metrics.max_rel_err,
        range_rel_err=metrics.range_rel_err,
        mse=metrics.mse,
        faulty_mean=np.asarray(faulty_mean, dtype=np.float64),
        faulty_std=np.asarray(faulty_std, dtype=np.float64),
        faulty_max=np.asarray(faulty_max, dtype=np.float64),
        faulty_min=np.asarray(faulty_min, dtype=np.float64),
        non_finite=metrics.non_finite,
        fault_spec=None if fault_spec is None else np.full(trials, fault_spec, dtype="<U32"),
    )
