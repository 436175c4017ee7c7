"""Conjugate gradient with stored state — the fragile contrast to Jacobi.

Elliott, Hoemmen & Mueller (cited in the paper's related work) studied
SDC in Krylov solvers: unlike a stationary sweep, a Krylov method builds
an orthogonal basis incrementally, so a corrupted vector *propagates*
through every later iteration instead of being smoothed away.  This CG
implementation stores its vectors in a chosen number system (write-
through like the Jacobi solver) and accepts the same fault hook, letting
the examples and experiments compare self-healing (Jacobi) against
history-dependent (CG) behaviour under the paper's flip model.

A flip in the solution vector exposes the classic hazard exactly: CG's
residual recurrence ``r <- r - alpha A p`` never re-reads ``x``, so the
solver keeps "converging" on schedule while the corruption sits in the
answer — **silent** data corruption, where Jacobi (which recomputes its
state from neighbors each sweep) smooths the same flip away.

The operator is the same 2-D Poisson matrix the Jacobi solver uses, so
the two methods solve identical systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.stencil import PoissonProblem
from repro.formats import NumberFormat, resolve


def poisson_matvec(state: np.ndarray, grid: int, spacing: float) -> np.ndarray:
    """y = A x for the 5-point Laplacian with zero Dirichlet boundary."""
    square = state.reshape(grid, grid)
    padded = np.pad(square, 1)
    neighbors = (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
    )
    return ((4.0 * square - neighbors) / spacing**2).reshape(-1)


@dataclass
class CGResult:
    """Outcome of a conjugate-gradient solve."""

    solution: np.ndarray
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False

    def error_vs(self, reference: np.ndarray) -> float:
        diff = self.solution.reshape(-1) - reference.reshape(-1)
        denominator = float(np.linalg.norm(reference))
        if denominator == 0:
            return float(np.linalg.norm(diff))
        return float(np.linalg.norm(diff) / denominator)


def cg_solve(
    problem: PoissonProblem,
    target: NumberFormat | str | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-8,
    fault_hook=None,
    rhs: np.ndarray | None = None,
) -> CGResult:
    """Conjugate gradient on the Poisson problem with stored vectors.

    Parameters
    ----------
    target:
        Number system the solution/residual/direction vectors are stored
        in between iterations (None = float64 throughout).
    fault_hook:
        ``hook(iteration, x) -> x`` applied to the solution vector after
        each update — the same contract as the Jacobi solver, so the
        fault harness drives both.
    rhs:
        Forcing term; default :meth:`PoissonProblem.point_source_rhs`
        (the smooth sine rhs is an eigenvector, which CG solves in one
        step — fine for accuracy checks, useless for iteration studies).
    """
    if isinstance(target, str):
        target = resolve(target)

    def store(vector: np.ndarray) -> np.ndarray:
        if target is None:
            return vector
        return target.round_trip(vector)

    grid = problem.grid
    spacing = problem.spacing
    if rhs is None:
        rhs = problem.point_source_rhs()
    rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
    rhs_norm = float(np.linalg.norm(rhs))

    x = store(np.zeros(grid * grid))
    r = store(rhs - poisson_matvec(x, grid, spacing))
    p = r.copy()
    rs_old = float(np.dot(r, r))

    result = CGResult(solution=x, iterations=0)
    for iteration in range(1, max_iterations + 1):
        ap = poisson_matvec(p, grid, spacing)
        pap = float(np.dot(p, ap))
        if pap == 0 or not np.isfinite(pap):
            result.diverged = not np.isfinite(pap)
            break
        alpha = rs_old / pap
        x = store(x + alpha * p)
        if fault_hook is not None:
            x = fault_hook(iteration, x.reshape(grid, grid)).reshape(-1)
        r = store(r - alpha * ap)
        rs_new = float(np.dot(r, r))
        residual_norm = float(np.sqrt(rs_new))
        result.residual_norms.append(residual_norm)
        result.iterations = iteration
        if not np.isfinite(residual_norm):
            result.diverged = True
            break
        if residual_norm <= tolerance * rhs_norm:
            result.converged = True
            break
        p = store(r + (rs_new / rs_old) * p)
        rs_old = rs_new
    result.solution = x
    return result

