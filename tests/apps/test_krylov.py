"""Tests for the conjugate-gradient workload."""

import numpy as np
import pytest

from repro.apps.campaign import AppCampaignConfig, clean_solve, run_app_trial
from repro.apps.krylov import cg_solve, poisson_matvec
from repro.apps.stencil import PoissonProblem
from repro.inject.faults import FaultMasks

PROBLEM = PoissonProblem(grid=12)


def flip_trial(app, target, iteration, flat_index, bit, **solver):
    """One single-bit flip of the solver state, scored against the clean solve."""
    config = AppCampaignConfig(
        app=app, grid=PROBLEM.grid, iterations=(iteration,), **solver
    )
    masks = FaultMasks(xor=1 << bit, set=0, clear=0)
    clean = clean_solve(config, target)
    return run_app_trial(config, target, iteration, flat_index, masks, clean)


class TestMatvec:
    def test_symmetric(self, rng):
        grid = 8
        spacing = 1.0 / (grid + 1)
        x = rng.normal(0, 1, grid * grid)
        y = rng.normal(0, 1, grid * grid)
        left = float(np.dot(y, poisson_matvec(x, grid, spacing)))
        right = float(np.dot(x, poisson_matvec(y, grid, spacing)))
        assert left == pytest.approx(right, rel=1e-12)

    def test_positive_definite_sample(self, rng):
        grid = 8
        spacing = 1.0 / (grid + 1)
        for _ in range(20):
            x = rng.normal(0, 1, grid * grid)
            assert np.dot(x, poisson_matvec(x, grid, spacing)) > 0


class TestSolve:
    def test_converges_float64_smooth_rhs(self):
        # The sine rhs is a discrete eigenvector: CG nails it immediately
        # and the solution matches the analytic one.
        result = cg_solve(PROBLEM, None, max_iterations=300, tolerance=1e-10,
                          rhs=PROBLEM.rhs())
        assert result.converged
        exact = PROBLEM.exact_solution().reshape(-1)
        assert result.error_vs(exact) < 0.02

    def test_point_source_needs_many_iterations(self):
        result = cg_solve(PROBLEM, None, max_iterations=500, tolerance=1e-8)
        assert result.converged
        assert result.iterations > 5

    def test_matches_direct_solution(self):
        # CG on the point source agrees with a dense direct solve.
        import numpy.linalg as la

        grid = PROBLEM.grid
        n = grid * grid
        matrix = np.zeros((n, n))
        identity = np.eye(n)
        for j in range(n):
            matrix[:, j] = poisson_matvec(identity[:, j], grid, PROBLEM.spacing)
        rhs = PROBLEM.point_source_rhs().reshape(-1)
        direct = la.solve(matrix, rhs)
        cg = cg_solve(PROBLEM, None, max_iterations=1000, tolerance=1e-12)
        assert cg.error_vs(direct) < 1e-8

    @pytest.mark.parametrize("target", ["ieee32", "posit32"])
    def test_converges_with_stored_state(self, target):
        result = cg_solve(PROBLEM, target, max_iterations=500, tolerance=1e-6)
        assert result.converged

    def test_residuals_recorded(self):
        result = cg_solve(PROBLEM, None, max_iterations=5, tolerance=0.0)
        assert len(result.residual_norms) == 5


class TestFaults:
    """CG's recursive residual never re-reads x, so a flip in the
    solution vector is *silent*: the solver still reports convergence
    while the corruption lands in the answer — the classic Krylov SDC
    behaviour (Elliott et al.), the opposite of Jacobi's self-healing."""

    #: Index of the point source — the one place x is sure to be nonzero
    #: after a few iterations (CG's influence spreads one ring per step).
    SOURCE = (PROBLEM.grid // 3) * PROBLEM.grid + (2 * PROBLEM.grid) // 3

    def test_low_bit_flip_negligible(self):
        outcome = flip_trial(
            "cg", "posit32", iteration=3, flat_index=self.SOURCE, bit=2,
            max_iterations=1000, tolerance=1e-6,
        )
        assert outcome.converged
        assert outcome.solution_error < 1e-3

    def test_high_bit_flip_is_silent_corruption(self):
        high = flip_trial(
            "cg", "ieee32", iteration=3, flat_index=self.SOURCE, bit=30,
            max_iterations=2000, tolerance=1e-6,
        )
        # Convergence is still reported (silent!) but the answer is wrong.
        assert high.converged
        assert high.iteration_overhead == 0
        assert high.solution_error > 0.1

    def test_posit_silent_corruption_orders_smaller_than_ieee(self):
        ieee = flip_trial(
            "cg", "ieee32", iteration=3, flat_index=self.SOURCE, bit=30,
            max_iterations=2000, tolerance=1e-6,
        )
        posit = flip_trial(
            "cg", "posit32", iteration=3, flat_index=self.SOURCE, bit=30,
            max_iterations=2000, tolerance=1e-6,
        )
        assert posit.solution_error < ieee.solution_error / 1e6

    def test_jacobi_self_heals_where_cg_does_not(self):
        cg = flip_trial(
            "cg", "ieee32", iteration=3, flat_index=self.SOURCE, bit=28,
            max_iterations=2000, tolerance=1e-6,
        )
        jacobi = flip_trial(
            "jacobi", "ieee32", iteration=3, flat_index=self.SOURCE, bit=28,
            max_iterations=8000, tolerance=1e-6,
        )
        assert jacobi.solution_error < cg.solution_error / 10

    def test_deterministic(self):
        a = flip_trial("cg", "posit32", 3, 10, 20, max_iterations=400)
        b = flip_trial("cg", "posit32", 3, 10, 20, max_iterations=400)
        assert a == b
