"""Single-fault trials: one flip in live Jacobi state, scored end to end."""

import numpy as np

from repro.apps.campaign import AppCampaignConfig, clean_solve, run_app_trial
from repro.inject.faults import FaultMasks

GRID = 8


def flip_trial(target, iteration, flat_index, bit, **solver):
    """One single-bit flip of the Jacobi state, scored against the clean solve."""
    config = AppCampaignConfig(
        app="jacobi", grid=GRID, iterations=(iteration,), **solver
    )
    masks = FaultMasks(xor=1 << bit, set=0, clear=0)
    clean = clean_solve(config, target)
    return run_app_trial(config, target, iteration, flat_index, masks, clean)


class TestSingleFault:
    def test_fraction_flip_self_heals(self):
        # A low fraction bit barely perturbs the state; Jacobi recovers.
        outcome = flip_trial("posit32", iteration=5, flat_index=10, bit=2,
                             max_iterations=4000, tolerance=1e-7)
        assert outcome.converged
        assert outcome.solution_error < 1e-4
        assert outcome.iteration_overhead >= 0 or outcome.iteration_overhead == 0

    def test_exponent_flip_costs_iterations_ieee(self):
        # IEEE bit 30 flip inflates a value enormously mid-solve.
        big = flip_trial("ieee32", iteration=5, flat_index=10, bit=30,
                         max_iterations=8000, tolerance=1e-7)
        small = flip_trial("ieee32", iteration=5, flat_index=10, bit=0,
                           max_iterations=8000, tolerance=1e-7)
        assert big.iteration_overhead > small.iteration_overhead

    def test_outcome_fields(self):
        outcome = flip_trial("posit16", iteration=3, flat_index=0, bit=1,
                             max_iterations=3000, tolerance=1e-6)
        assert outcome.clean_iterations > 0
        assert np.isfinite(outcome.solution_error)
