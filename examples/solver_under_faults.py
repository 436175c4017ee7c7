#!/usr/bin/env python3
"""Application study: a Jacobi Poisson solve under bit flips.

The paper injects faults into stored data; its related work (Elliott et
al. on GMRES, Casas et al. on AMG) asks what those flips do to whole HPC
computations.  This example answers that for the library's Jacobi solver:

1. solve the Poisson problem with state stored as ieee32 vs posit32
   (accuracy comparison, no faults);
2. inject a single bit flip into the solver state mid-run, sweeping all
   bit positions, and compare the application-level outcomes: extra
   iterations, final-solution error, divergence.

Run:  python examples/solver_under_faults.py [--grid 24] [--trials 2]
"""

import argparse

import numpy as np

from repro.apps import (
    AppCampaignConfig,
    PoissonProblem,
    clean_solve,
    jacobi_solve,
    run_app_campaign,
    run_app_trial,
)
from repro.analysis.appsweep import summarize_records
from repro.inject.faults import FaultMasks
from repro.reporting import Table, render_table


def clean_accuracy(problem: PoissonProblem) -> None:
    exact = problem.exact_solution()
    print("== clean solves (no faults) ==")
    for target in (None, "ieee32", "posit32", "posit16", "ieee16"):
        result = jacobi_solve(problem, target, max_iterations=5000, tolerance=1e-7)
        label = target or "float64"
        print(
            f"  {label:>8}: {result.iterations:4d} iterations, "
            f"discretization+storage error {result.error_vs(exact):.3e}, "
            f"converged={result.converged}"
        )
    print()


def fault_sweep(problem: PoissonProblem, trials: int, seed: int) -> None:
    print("== single flip at iteration 10, sweep over all bit positions ==")
    table = Table(
        title="Application-level fault outcomes",
        columns=[
            "target", "trials", "converged", "delayed", "diverged", "sdc",
            "mean extra iters", "max sdc err",
        ],
    )
    for target in ("ieee32", "posit32"):
        config = AppCampaignConfig(
            app="jacobi", grid=problem.grid, iterations=(10,),
            trials_per_cell=trials, seed=seed,
            max_iterations=5000, tolerance=1e-7,
        )
        result = run_app_campaign(config, target)
        records = result.records
        summary = summarize_records(
            records, target=target, app="jacobi", fault=config.fault
        )
        table.add_row([
            target,
            summary.trial_count,
            summary.rates["converged"],
            summary.rates["delayed"],
            summary.rates["diverged"],
            summary.rates["sdc"],
            summary.mean_overhead,
            summary.max_sdc_error,
        ])

        # Which bits hurt the most, application-side?
        order = np.argsort(records.iteration_overhead)[::-1][:3]
        print(f"  {target}: worst bits by recovery cost: "
              + ", ".join(f"bit {int(records.bit[i])} "
                          f"(+{int(records.iteration_overhead[i])} iters)"
                          for i in order))
    print()
    print(render_table(table))
    print()
    print(
        "takeaway: Jacobi self-heals small perturbations, so the cost of a "
        "flip is measured in extra sweeps; IEEE exponent flips cost the "
        "most (or diverge), posit regime flips cost less on average — the "
        "storage-level resiliency gap carries through to the application."
    )


def cg_silent_corruption(problem: PoissonProblem) -> None:
    print("== conjugate gradient: the silent-corruption contrast ==")
    source = (problem.grid // 3) * problem.grid + (2 * problem.grid) // 3
    config = AppCampaignConfig(
        app="cg", grid=problem.grid, iterations=(3,),
        max_iterations=4000, tolerance=1e-6,
    )
    flip_bit_30 = FaultMasks(xor=1 << 30, set=0, clear=0)
    for target in ("ieee32", "posit32"):
        clean = clean_solve(config, target)
        outcome = run_app_trial(config, target, 3, source, flip_bit_30, clean)
        print(
            f"  {target}: flip bit 30 of x at iter 3 -> still 'converged' "
            f"in {outcome.faulty_iterations} iters (overhead "
            f"{outcome.iteration_overhead}), but the answer is off by "
            f"{outcome.solution_error:.3e} relative"
        )
    print(
        "  CG's residual recurrence never re-reads x, so the flip is "
        "SILENT — the opposite of Jacobi's self-healing; posit storage "
        "bounds the silent damage by orders of magnitude."
    )
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=24)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2023)
    args = parser.parse_args()
    problem = PoissonProblem(grid=args.grid)
    clean_accuracy(problem)
    cg_silent_corruption(problem)
    fault_sweep(problem, args.trials, args.seed)


if __name__ == "__main__":
    main()
