"""Fault-injection engine: formats, fault models, campaigns, records.

The ``InjectionTarget``/``target_by_name``/``available_targets``
forwarding shims (deprecated since the format registry landed) are
gone: use :func:`repro.formats.resolve`,
:class:`repro.formats.NumberFormat`, and
:func:`repro.formats.available_formats`.
"""

from repro.formats import FixedPositTarget, IEEETarget, NumberFormat, PositTarget
from repro.inject.campaign import (
    PAPER_TRIALS_PER_BIT,
    CampaignConfig,
    CampaignResult,
    ConversionReport,
    bit_seeds,
    conversion_report,
    run_campaign,
    run_campaign_shard,
)
from repro.inject.faults import (
    AdjacentBitFlip,
    BurstBitFlip,
    FaultMasks,
    FaultModel,
    MultiBitFlip,
    RandomBitFlip,
    SingleBitFlip,
    StuckAt,
    apply_masks,
)
from repro.inject.faultspec import (
    DEFAULT_FAULT_SPEC,
    FAULT_GRAMMAR,
    FaultSpecError,
    ResolvedFault,
    canonical_fault_spec,
    registered_fault_examples,
    resolve_fault,
)
from repro.inject.results import TrialRecords
from repro.inject.suite import SuiteConfig, SuiteResult, run_suite
from repro.inject.validate import VerificationReport, verify_records
from repro.inject.trial import (
    FieldPipeline,
    SingleTrialResult,
    field_pipeline,
    run_bit_trials,
    run_single_trial,
)

__all__ = [
    "AdjacentBitFlip",
    "BurstBitFlip",
    "CampaignConfig",
    "CampaignResult",
    "ConversionReport",
    "DEFAULT_FAULT_SPEC",
    "FAULT_GRAMMAR",
    "FaultMasks",
    "FaultModel",
    "FaultSpecError",
    "ResolvedFault",
    "FieldPipeline",
    "FixedPositTarget",
    "IEEETarget",
    "MultiBitFlip",
    "NumberFormat",
    "PAPER_TRIALS_PER_BIT",
    "PositTarget",
    "RandomBitFlip",
    "SingleBitFlip",
    "SingleTrialResult",
    "StuckAt",
    "SuiteConfig",
    "SuiteResult",
    "TrialRecords",
    "VerificationReport",
    "field_pipeline",
    "run_suite",
    "verify_records",
    "apply_masks",
    "bit_seeds",
    "canonical_fault_spec",
    "conversion_report",
    "registered_fault_examples",
    "resolve_fault",
    "run_bit_trials",
    "run_campaign",
    "run_campaign_shard",
    "run_single_trial",
]
