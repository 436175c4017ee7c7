"""Per-format outcome-rate tables for application-level campaigns.

An app sweep (``campaign sweep --app cg --formats ... --faults ...``)
leaves one run directory per (format x fault model) cell, each shard an
(injection-iteration, bit) solve replay classified into the outcome
taxonomy of :mod:`repro.apps.campaign` — converged / delayed / diverged
/ sdc.  This module folds those records into the paper-extending
artifact: the per-format outcome-rate table (posit32 vs ieee32 vs
bfloat16 vs fixedposit SDC/divergence frontiers), plus per-bit and
per-iteration breakdowns for drilling into *where* in the word and
*when* in the solve a flip stops being survivable.

Run as a script to render the table for finished run directories::

    python -m repro.analysis.appsweep runs/default/cg-posit32-0001 ...
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.campaign import OUTCOMES, AppTrialRecords

__all__ = [
    "AppOutcomeSummary",
    "load_app_records",
    "outcome_counts",
    "outcome_rates",
    "outcome_rates_by_bit",
    "outcome_rates_by_iteration",
    "outcome_table",
    "render_outcome_table",
    "summarize_app_run",
    "summaries_from_run_dirs",
]


def outcome_counts(records: AppTrialRecords) -> dict[str, int]:
    """Trial count per outcome label, every label always present."""
    return {
        outcome: int(np.count_nonzero(records.outcome == outcome))
        for outcome in OUTCOMES
    }


def outcome_rates(records: AppTrialRecords) -> dict[str, float]:
    """Fraction of trials per outcome label (zeros on empty records)."""
    total = len(records)
    if total == 0:
        return {outcome: 0.0 for outcome in OUTCOMES}
    return {
        outcome: count / total for outcome, count in outcome_counts(records).items()
    }


def outcome_rates_by_bit(records: AppTrialRecords) -> dict[int, dict[str, float]]:
    """Outcome rates per injected bit position."""
    return {
        int(bit): outcome_rates(records.for_bit(int(bit)))
        for bit in np.unique(records.bit)
    }


def outcome_rates_by_iteration(
    records: AppTrialRecords,
) -> dict[int, dict[str, float]]:
    """Outcome rates per injection iteration (the temporal axis)."""
    return {
        int(iteration): outcome_rates(
            records.select(records.iteration == iteration)
        )
        for iteration in np.unique(records.iteration)
    }


@dataclass(frozen=True)
class AppOutcomeSummary:
    """Whole-campaign outcome statistics for one (format x fault) cell."""

    target: str
    app: str
    fault: str
    trial_count: int
    rates: dict[str, float]
    #: Mean extra iterations over the clean solve, among trials that
    #: converged at all (0.0 when none did).
    mean_overhead: float
    #: Worst relative solution error among trials classified ``sdc``
    #: (0.0 when none were).
    max_sdc_error: float

    def as_row(self) -> list:
        return [
            self.target,
            self.app,
            self.fault,
            self.trial_count,
            *(self.rates[outcome] for outcome in OUTCOMES),
            self.mean_overhead,
        ]


def summarize_records(
    records: AppTrialRecords, *, target: str, app: str, fault: str
) -> AppOutcomeSummary:
    """One summary row from folded app-campaign records."""
    converged = records.converged & ~records.diverged
    overheads = records.iteration_overhead[converged]
    sdc_errors = records.solution_error[records.outcome == "sdc"]
    finite_sdc = sdc_errors[np.isfinite(sdc_errors)]
    return AppOutcomeSummary(
        target=target,
        app=app,
        fault=fault,
        trial_count=len(records),
        rates=outcome_rates(records),
        mean_overhead=float(np.mean(overheads)) if overheads.size else 0.0,
        max_sdc_error=float(np.max(finite_sdc)) if finite_sdc.size else 0.0,
    )


def load_app_records(run_dir) -> AppTrialRecords:
    """Every completed, trusted shard of an app run directory, concatenated."""
    from repro.runner.manifest import RunManifest
    from repro.runner.verify import load_run_records

    if RunManifest.load(run_dir).app is None:
        raise ValueError(
            f"run {run_dir} is a value campaign, not an app campaign; "
            "use repro.analysis.aggregate / faultsweep on it"
        )
    return load_run_records(run_dir)


def summarize_app_run(run_dir) -> AppOutcomeSummary:
    """Summary row for one completed app run directory."""
    from repro.runner.manifest import RunManifest

    manifest = RunManifest.load(run_dir)
    records = load_app_records(run_dir)
    return summarize_records(
        records,
        target=manifest.target_spec,
        app=manifest.app["name"],
        fault=manifest.fault,
    )


def summaries_from_run_dirs(run_dirs) -> list[AppOutcomeSummary]:
    """One summary per run directory, sorted for stable table output."""
    summaries = [summarize_app_run(run_dir) for run_dir in run_dirs]
    summaries.sort(key=lambda s: (s.app, s.fault, s.target))
    return summaries


def outcome_table(summaries) -> tuple[list[str], list[list]]:
    """(header, rows) of the per-format outcome-rate table."""
    header = ["target", "app", "fault", "trials", *OUTCOMES, "mean_overhead"]
    return header, [summary.as_row() for summary in summaries]


def render_outcome_table(summaries) -> str:
    """Fixed-width text rendering of :func:`outcome_table`."""
    header, rows = outcome_table(summaries)
    rendered = [header] + [
        [
            f"{value:.4f}" if isinstance(value, float) else str(value)
            for value in row
        ]
        for row in rows
    ]
    widths = [
        max(len(line[column]) for line in rendered)
        for column in range(len(header))
    ]
    lines = []
    for index, line in enumerate(rendered):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI artifact: render the outcome table for finished app runs."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.appsweep",
        description="Per-format outcome-rate table for app-campaign run dirs.",
    )
    parser.add_argument("run_dirs", nargs="+", help="completed app run directories")
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead"
    )
    args = parser.parse_args(argv)
    summaries = summaries_from_run_dirs(args.run_dirs)
    if args.json:
        import json

        print(json.dumps(
            [
                {
                    "target": s.target,
                    "app": s.app,
                    "fault": s.fault,
                    "trials": s.trial_count,
                    "rates": s.rates,
                    "mean_overhead": s.mean_overhead,
                    "max_sdc_error": s.max_sdc_error,
                }
                for s in summaries
            ],
            indent=2,
        ))
    else:
        print(render_outcome_table(summaries))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
