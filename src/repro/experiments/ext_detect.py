"""Extension: impact-driven SDC detection over the solver workload.

The paper's related work lists software detection (Di & Cappello) among
the defenses motivating resiliency studies.  This experiment closes that
loop: run the Jacobi workload under single flips at every bit position,
watch the state with the linear-extrapolation detector, and relate
*detection recall* to *application impact* for both number systems.

The expected picture — and the checks — follow from impact-driven
detection's design: it catches exactly the flips big enough to matter.
Posit flips are smaller on average, so raw recall is lower, but the
missed flips are the ones the application absorbs anyway; the meaningful
metric is the damage carried by *undetected* faults, where posits win.
"""

from __future__ import annotations

import numpy as np

from repro.apps.campaign import AppCampaignConfig, classify_outcome, clean_solve, run_app_trial
from repro.apps.stencil import PoissonProblem
from repro.detect.temporal import detection_sweep
from repro.experiments.base import ExperimentOutput, ExperimentParams, register_experiment
from repro.inject.faults import FaultMasks
from repro.reporting.series import Table

GRID = 12
INJECT_AT = 10
NBITS = 32


@register_experiment(
    "ext-detect",
    "Impact-driven SDC detection vs number system (extension)",
    "Section 2 related work (detection)",
)
def run(params: ExperimentParams) -> ExperimentOutput:
    output = ExperimentOutput(
        exp_id="ext-detect",
        title="What an impact-driven detector catches, per number system",
    )
    problem = PoissonProblem(grid=GRID)
    center = (GRID // 2) * GRID + GRID // 2
    solver = AppCampaignConfig(
        app="jacobi", grid=GRID, iterations=(INJECT_AT,),
        max_iterations=4000, tolerance=1e-7, sdc_threshold=1e-2,
    )

    table = Table(
        title="Detection and undetected damage per bit position band",
        columns=[
            "target", "recall (all bits)", "recall (top 8)",
            "max undetected solution err", "false positives",
        ],
    )
    undetected_damage = {}
    for target in ("ieee32", "posit32"):
        outcomes = detection_sweep(
            problem, target, iteration=INJECT_AT, bits=range(NBITS),
            flat_index=center, theta=8.0,
        )
        recall = float(np.mean([o.detected for o in outcomes]))
        top = [o for o in outcomes if o.bit >= NBITS - 8]
        top_recall = float(np.mean([o.detected for o in top]))
        false_positives = sum(o.false_positives_before for o in outcomes)

        # Classify each undetected flip through the app-campaign outcome
        # taxonomy: the damage metric is the worst finite solution error,
        # and the labels say how the application experienced the miss.
        worst_undetected = 0.0
        labels: dict[str, int] = {}
        clean = clean_solve(solver, target)
        for outcome in outcomes:
            if outcome.detected:
                continue
            result = run_app_trial(
                solver, target, INJECT_AT, center,
                FaultMasks(xor=1 << outcome.bit, set=0, clear=0), clean,
            )
            label = classify_outcome(
                result.converged,
                result.diverged,
                result.iteration_overhead,
                result.solution_error,
                solver.sdc_threshold,
            )
            labels[label] = labels.get(label, 0) + 1
            if np.isfinite(result.solution_error):
                worst_undetected = max(worst_undetected, result.solution_error)
        undetected_damage[target] = worst_undetected
        table.add_row([target, recall, top_recall, worst_undetected, false_positives])
        output.check(f"{target}_no_false_positives", false_positives == 0)
        output.findings.append(
            f"{target}: undetected-flip app outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
        )
    output.tables.append(table)

    output.check(
        "undetected_faults_cause_negligible_damage",
        all(damage < 1e-2 for damage in undetected_damage.values()),
    )

    # Storage-side view of the same detector, per fault model: replay
    # campaign records (single vs adjacent(2), via the fault grammar)
    # through the impact-driven threshold.  Multi-bit upsets cause
    # bigger value jumps, so detection coverage must not shrink.
    from repro.analysis.faultsweep import temporal_detection_report
    from repro.experiments._campaigns import field_campaign

    coverage = {}
    for fault in ("single", "adjacent(2)"):
        records = field_campaign("hurricane/uf30", "posit32", params, fault=fault).records
        coverage[fault] = temporal_detection_report(records, NBITS).covered_fraction
    output.check(
        "impact_detection_coverage_grows_with_fault_width",
        coverage["adjacent(2)"] >= coverage["single"] - 1e-9,
    )
    output.findings.append(
        "impact-threshold coverage of stored-value faults: "
        + ", ".join(f"{fault}: {cov:.3f}" for fault, cov in coverage.items())
    )
    output.findings.append(
        "impact-driven detection catches the flips that matter; the "
        "worst *undetected* flip moves the final solution by "
        + ", ".join(f"{t}: {d:.1e}" for t, d in undetected_damage.items())
    )
    return output
