"""The conformance oracle driver: which checks run, against what, how hard.

``run_conformance`` is the single entry point behind ``repro conformance
run``: it resolves the format roster, walks the check registry at the
requested level, and folds every outcome into a severity-ranked
:class:`~repro.conformance.report.ConformanceReport`.  Each check runs
under a telemetry span and bumps the ``conformance.*`` counters, so a
profiled conformance run breaks down exactly like a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.conformance import differential, golden, invariants, multibit
from repro.conformance.golden import default_golden_dir
from repro.conformance.references import ORACLE_SEED
from repro.conformance.report import (
    BUDGETS,
    LEVELS,
    CheckResult,
    ConformanceReport,
    FindingCollector,
    SampleBudget,
)
from repro.telemetry import get_telemetry

#: The roster gated by default: the paper's formats plus the wide posits.
DEFAULT_CHECK_FORMATS = (
    "posit8",
    "posit16",
    "posit32",
    "posit64",
    "ieee16",
    "ieee32",
    "ieee64",
    "bfloat16",
)

#: Per-format checks, in severity-of-consequence order.
FORMAT_CHECKS = (
    differential.check_reference_decode,
    differential.check_reference_encode,
    differential.check_backend_agreement,
    differential.check_lean_agreement,
    differential.check_round_trip_agreement,
    invariants.check_idempotence,
    invariants.check_rne_ties,
    invariants.check_posit_monotonic,
    invariants.check_negation_symmetry,
    invariants.check_lowery_exponent,
    multibit.check_multibit_lowery,
    multibit.check_multibit_batched_identity,
)

#: Roster-independent checks (metrics layer).
GLOBAL_CHECKS = (
    differential.check_metrics_fast_vs_full,
    invariants.check_metrics_metamorphic,
)


@dataclass(frozen=True)
class OracleContext:
    """Everything a check function may consult."""

    level: str
    budget: SampleBudget
    seed: int
    golden_dir: Path
    #: None means "the default roster" (golden checks then cover every
    #: fixture); an explicit tuple restricts golden fixtures too.
    formats: tuple[str, ...] | None = None


@dataclass
class _Runner:
    ctx: OracleContext
    report: ConformanceReport = field(init=False)

    def __post_init__(self) -> None:
        self.report = ConformanceReport(level=self.ctx.level)

    def run(self, name: str, subject: str, func, *args) -> None:
        telemetry = get_telemetry()
        try:
            # The oracle deliberately feeds overflow-range and non-finite
            # inputs; numpy's RuntimeWarnings about them are expected.
            with telemetry.span(f"conformance.{name}"), np.errstate(
                over="ignore", invalid="ignore", divide="ignore"
            ):
                outcome = func(*args)
        except Exception as error:  # a crashing check is itself a finding
            collector = FindingCollector(name, subject)
            collector.error(f"check crashed: {error!r}")
            outcome = collector.finish(0)
        results = outcome if isinstance(outcome, list) else [outcome]
        for result in results:
            self.report.results.append(result)
            if result.skipped:
                continue
            telemetry.count("conformance.checks_run")
            telemetry.count("conformance.units_checked", result.checked)
            if not result.ok:
                telemetry.count("conformance.checks_failed")
                telemetry.count("conformance.findings", len(result.findings))


def run_conformance(
    level: str = "smoke",
    formats=None,
    *,
    golden_dir=None,
    seed: int = ORACLE_SEED,
) -> ConformanceReport:
    """Run the oracle and return the severity-ranked report.

    Parameters
    ----------
    level:
        ``smoke`` (seeded samples, exhaustive only for 8-bit widths) or
        ``full`` (exhaustive up to 16-bit, larger stratified samples).
    formats:
        Iterable of spec strings to gate; default is
        :data:`DEFAULT_CHECK_FORMATS`.  Golden fixtures are filtered to
        the requested formats when given explicitly.
    golden_dir:
        Fixture directory (default ``tests/golden`` of the checkout, or
        ``$REPRO_GOLDEN_DIR``).
    seed:
        Root seed for all stratified sampling.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    from repro.formats import resolve

    explicit = formats is not None
    roster = tuple(formats) if explicit else DEFAULT_CHECK_FORMATS
    resolved = [resolve(spec) for spec in roster]
    ctx = OracleContext(
        level=level,
        budget=BUDGETS[level],
        seed=seed,
        golden_dir=Path(golden_dir) if golden_dir is not None else default_golden_dir(),
        formats=tuple(fmt.name for fmt in resolved) if explicit else None,
    )
    runner = _Runner(ctx)
    telemetry = get_telemetry()
    with telemetry.span("conformance.run"):
        for fmt in resolved:
            for check in FORMAT_CHECKS:
                name = check.__name__.removeprefix("check_").replace("_", "-")
                runner.run(name, fmt.name, check, ctx, fmt)
        for check in GLOBAL_CHECKS:
            name = check.__name__.removeprefix("check_").replace("_", "-")
            runner.run(name, "metrics", check, ctx)
        runner.run("golden-codec", "golden", golden.check_golden_codecs, ctx)
        runner.run("golden-campaign", "golden", golden.check_golden_campaigns, ctx)
    return runner.report


__all__ = [
    "DEFAULT_CHECK_FORMATS",
    "FORMAT_CHECKS",
    "GLOBAL_CHECKS",
    "OracleContext",
    "run_conformance",
    "CheckResult",
]
