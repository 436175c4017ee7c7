"""Application-level workloads: iterative solver and BLAS kernels."""

from repro.apps.blas import (
    KernelResult,
    dot_error_comparison,
    fused_posit_dot,
    stored_axpy,
    stored_dot,
)
from repro.apps.campaign import (
    OUTCOMES,
    AppCampaignConfig,
    AppCampaignRunner,
    AppTrial,
    AppTrialRecords,
    cell_seeds,
    classify_outcome,
    classify_outcomes,
    clean_solve,
    mask_injector,
    run_app_campaign,
    run_app_shard,
    run_app_trial,
)
from repro.apps.krylov import CGResult, cg_solve, poisson_matvec
from repro.apps.stencil import PoissonProblem, SolveResult, jacobi_solve

__all__ = [
    "AppCampaignConfig",
    "AppCampaignRunner",
    "AppTrial",
    "AppTrialRecords",
    "CGResult",
    "KernelResult",
    "OUTCOMES",
    "PoissonProblem",
    "SolveResult",
    "cell_seeds",
    "cg_solve",
    "classify_outcome",
    "classify_outcomes",
    "clean_solve",
    "poisson_matvec",
    "dot_error_comparison",
    "fused_posit_dot",
    "jacobi_solve",
    "mask_injector",
    "run_app_campaign",
    "run_app_shard",
    "run_app_trial",
    "stored_axpy",
    "stored_dot",
]
