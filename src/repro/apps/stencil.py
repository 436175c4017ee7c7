"""Jacobi 2-D Poisson solver with configurable value storage.

The paper motivates its study with HPC applications whose state lives in
floating-point memory; prior work it cites (Elliott et al., Casas et al.)
injects faults into iterative solvers.  This module provides that
workload: a Jacobi iteration on the unit square whose state vector is
*stored* in a chosen number system (every sweep writes through
``target.round_trip``, modelling state kept in posit/IEEE memory), so the
storage format's accuracy and resiliency both become observable at the
application level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats import NumberFormat, resolve


@dataclass(frozen=True)
class PoissonProblem:
    """-Laplace(u) = f on the unit square, zero Dirichlet boundary."""

    grid: int = 32

    def __post_init__(self) -> None:
        if self.grid < 3:
            raise ValueError(f"grid must be at least 3, got {self.grid}")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.grid + 1)

    def rhs(self) -> np.ndarray:
        """A smooth forcing term: f(x, y) = 2 pi^2 sin(pi x) sin(pi y)."""
        coords = np.linspace(self.spacing, 1.0 - self.spacing, self.grid)
        x, y = np.meshgrid(coords, coords, indexing="ij")
        return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    def exact_solution(self) -> np.ndarray:
        """u(x, y) = sin(pi x) sin(pi y) solves the problem exactly."""
        coords = np.linspace(self.spacing, 1.0 - self.spacing, self.grid)
        x, y = np.meshgrid(coords, coords, indexing="ij")
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def point_source_rhs(self) -> np.ndarray:
        """A localized off-center source.

        The smooth :meth:`rhs` is (a sample of) an eigenvector of the
        discrete Laplacian, which Krylov methods solve in one step; the
        point source excites the full spectrum and produces a realistic
        iteration count.
        """
        rhs = np.zeros((self.grid, self.grid))
        rhs[self.grid // 3, (2 * self.grid) // 3] = 1.0 / self.spacing**2
        return rhs


@dataclass
class SolveResult:
    """Outcome of a Jacobi solve."""

    solution: np.ndarray
    iterations: int
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False

    def error_vs(self, reference: np.ndarray) -> float:
        """Relative L2 error against a reference solution."""
        diff = self.solution - reference
        denominator = float(np.linalg.norm(reference))
        if denominator == 0:
            return float(np.linalg.norm(diff))
        return float(np.linalg.norm(diff) / denominator)


def _jacobi_sweep(state: np.ndarray, rhs_h2: np.ndarray) -> np.ndarray:
    """One Jacobi update with zero Dirichlet boundaries."""
    padded = np.zeros((state.shape[0] + 2, state.shape[1] + 2), dtype=state.dtype)
    padded[1:-1, 1:-1] = state
    neighbors = (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
    )
    return 0.25 * (neighbors + rhs_h2)


def jacobi_solve(
    problem: PoissonProblem,
    target: NumberFormat | str | None = None,
    max_iterations: int = 2000,
    tolerance: float = 1e-6,
    fault_hook=None,
) -> SolveResult:
    """Solve the Poisson problem by Jacobi iteration.

    Parameters
    ----------
    target:
        Number system the state is stored in between sweeps (None keeps
        float64 throughout — the exact baseline).
    fault_hook:
        Optional ``hook(iteration, state) -> state`` called after every
        sweep; the fault-injection harness uses it to corrupt one value.
    """
    if isinstance(target, str):
        target = resolve(target)
    rhs_h2 = problem.rhs() * problem.spacing**2
    state = np.zeros((problem.grid, problem.grid))
    if target is not None:
        state = target.round_trip(state).reshape(state.shape)

    result = SolveResult(solution=state, iterations=0)
    for iteration in range(1, max_iterations + 1):
        updated = _jacobi_sweep(state, rhs_h2)
        if target is not None:
            updated = target.round_trip(updated).reshape(updated.shape)
        if fault_hook is not None:
            updated = fault_hook(iteration, updated)

        residual = float(np.max(np.abs(updated - state)))
        result.residuals.append(residual)
        state = updated
        result.iterations = iteration
        if not np.isfinite(residual):
            result.diverged = True
            break
        if residual < tolerance:
            result.converged = True
            break
    result.solution = state
    return result
