"""Application-level resiliency campaigns through the runner.

The classic campaign scores isolated value corruption; this layer asks
the downstream question — does a flipped bit in *live solver state*
matter?  Each shard is an (injection-iteration, bit) cell that replays
a deterministic solve (CG on the Poisson system, or the Jacobi
stencil), flips one element of the iterate via the shared fault-spec
grammar, and records a typed outcome:

``converged``
    finished within the clean run's iteration count and matched the
    fault-free solution.
``delayed``
    converged to the right answer, but needed extra iterations
    (``iteration_overhead > 0``).
``diverged``
    blew up (non-finite state) or hit the iteration cap without
    converging.
``sdc``
    silent data corruption: converged on schedule, but to an answer
    whose relative error against the fault-free solution exceeds the
    SDC threshold.

Cells reuse the integer-keyed shard machinery unchanged: cell id
``it_idx * nbits + bit`` is invertible, so manifests, shard files,
leases, and done-records all work exactly as they do for value
campaigns.  The shard-file format lives in one module,
:mod:`repro.inject.results`; this one declares only what is
app-specific — the record columns, the solvers and their one fault hook
(:func:`mask_injector`, driven per trial by :func:`run_app_trial`), and
the outcome taxonomy.  Seeding is a pure function of (seed, iteration, bit) so
any process — serial, pool worker, or work-stealing worker — replays a
cell byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.apps.krylov import CGResult, cg_solve
from repro.apps.stencil import PoissonProblem, SolveResult, jacobi_solve
from repro.formats import NumberFormat, resolve
from repro.inject.campaign import CampaignConfig
from repro.inject.faults import FaultMasks, apply_masks
from repro.inject.faultspec import (
    DEFAULT_FAULT_SPEC,
    canonical_fault_spec,
    resolve_fault,
)
from repro.inject.results import BOOL, FLOAT, INT, OPTIONAL, STR, ColumnarRecords
from repro.runner.manifest import RunManifest
from repro.runner.runner import CampaignRunner, RunnerError, ShardSpec

__all__ = [
    "OUTCOMES",
    "AppCampaignConfig",
    "AppCampaignRunner",
    "AppShardJob",
    "AppTrial",
    "AppTrialRecords",
    "app_solver_defaults",
    "cell_seeds",
    "classify_outcome",
    "classify_outcomes",
    "clean_solve",
    "mask_injector",
    "run_app_shard",
    "run_app_trial",
]

#: Outcome taxonomy, listed from best to worst.  Classification picks
#: the *worst* label that applies.
OUTCOME_CONVERGED = "converged"
OUTCOME_DELAYED = "delayed"
OUTCOME_DIVERGED = "diverged"
OUTCOME_SDC = "sdc"
OUTCOMES = (OUTCOME_CONVERGED, OUTCOME_DELAYED, OUTCOME_DIVERGED, OUTCOME_SDC)

#: app name -> (default max_iterations, default tolerance)
_APP_DEFAULTS = {
    "cg": (500, 1e-8),
    "jacobi": (2000, 1e-6),
}

APP_NAMES = tuple(sorted(_APP_DEFAULTS))


def app_solver_defaults(app: str) -> tuple[int, float]:
    """Return the (max_iterations, tolerance) defaults for ``app``."""
    try:
        return _APP_DEFAULTS[app]
    except KeyError:
        raise ValueError(
            f"unknown app {app!r}; expected one of {', '.join(APP_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# Outcome classification (scalar and batched paths must agree)
# ---------------------------------------------------------------------------


def classify_outcome(
    converged: bool,
    diverged: bool,
    iteration_overhead: int,
    solution_error: float,
    sdc_threshold: float,
) -> str:
    """Classify a single trial.  Priority: diverged > sdc > delayed."""
    if diverged or not converged:
        return OUTCOME_DIVERGED
    error = float(solution_error)
    if not np.isfinite(error) or error > sdc_threshold:
        return OUTCOME_SDC
    if iteration_overhead > 0:
        return OUTCOME_DELAYED
    return OUTCOME_CONVERGED


def classify_outcomes(
    converged: np.ndarray,
    diverged: np.ndarray,
    iteration_overhead: np.ndarray,
    solution_error: np.ndarray,
    sdc_threshold: float,
) -> np.ndarray:
    """Vectorized :func:`classify_outcome` over parallel trial arrays.

    Labels are assigned best-first so later (worse) assignments win,
    which reproduces the scalar priority exactly.
    """
    converged = np.asarray(converged, dtype=bool)
    diverged = np.asarray(diverged, dtype=bool)
    overhead = np.asarray(iteration_overhead)
    error = np.asarray(solution_error, dtype=np.float64)
    outcomes = np.full(converged.shape, OUTCOME_CONVERGED, dtype="<U16")
    outcomes[overhead > 0] = OUTCOME_DELAYED
    outcomes[~np.isfinite(error) | (error > sdc_threshold)] = OUTCOME_SDC
    outcomes[diverged | ~converged] = OUTCOME_DIVERGED
    return outcomes


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppCampaignConfig:
    """Identity of an app campaign: solver, schedule, fault, thresholds.

    ``iterations`` is the injection schedule — the 1-based solver
    iterations at which state is corrupted (one cell row per entry).
    ``max_iterations``/``tolerance`` of 0 mean "use the app's default"
    and are resolved eagerly so the manifest always records concrete
    values.
    """

    app: str = "cg"
    grid: int = 16
    iterations: tuple[int, ...] = (10,)
    trials_per_cell: int = 3
    bits: tuple[int, ...] | None = None
    seed: int = 2023
    fault: str = DEFAULT_FAULT_SPEC
    max_iterations: int = 0
    tolerance: float = 0.0
    sdc_threshold: float = 1e-3

    def __post_init__(self) -> None:
        default_iters, default_tol = app_solver_defaults(self.app)
        if self.grid < 3:
            raise ValueError("grid must be >= 3")
        schedule = tuple(int(step) for step in self.iterations)
        if not schedule:
            raise ValueError("injection schedule must name at least one iteration")
        if any(step < 1 for step in schedule):
            raise ValueError("injection iterations are 1-based: every entry must be >= 1")
        if any(b >= a for a, b in zip(schedule[1:], schedule)):
            raise ValueError("injection schedule must be strictly increasing")
        object.__setattr__(self, "iterations", schedule)
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if self.bits is not None:
            object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if not self.sdc_threshold > 0:
            raise ValueError("sdc_threshold must be positive")
        object.__setattr__(self, "fault", canonical_fault_spec(self.fault))
        if self.max_iterations == 0:
            object.__setattr__(self, "max_iterations", default_iters)
        elif self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance == 0.0:
            object.__setattr__(self, "tolerance", default_tol)
        elif not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if max(schedule) > self.max_iterations:
            raise ValueError(
                "injection schedule extends past max_iterations "
                f"({max(schedule)} > {self.max_iterations})"
            )

    # -- cell arithmetic ----------------------------------------------------

    def resolved_bits(self, target: NumberFormat | str) -> tuple[int, ...]:
        target = resolve(target)
        if self.bits is None:
            return tuple(range(target.nbits))
        for bit in self.bits:
            if not 0 <= bit < target.nbits:
                raise ValueError(
                    f"bit {bit} out of range for {target.name} ({target.nbits} bits)"
                )
        return self.bits

    def cells(self, target: NumberFormat | str) -> tuple[int, ...]:
        """All cell ids for this schedule x bit grid, in shard order."""
        target = resolve(target)
        bits = self.resolved_bits(target)
        return tuple(
            it_idx * target.nbits + bit
            for it_idx in range(len(self.iterations))
            for bit in bits
        )

    def cell_location(self, cell: int, nbits: int) -> tuple[int, int]:
        """Invert a cell id to its (injection iteration, bit)."""
        it_idx, bit = divmod(int(cell), int(nbits))
        if not 0 <= it_idx < len(self.iterations):
            raise ValueError(f"cell {cell} outside the injection schedule")
        return self.iterations[it_idx], bit

    # -- problem plumbing ---------------------------------------------------

    def problem(self) -> PoissonProblem:
        return PoissonProblem(grid=self.grid)

    def dataset_array(self) -> np.ndarray:
        """The right-hand side the app solves against.

        Doubles as the manifest's dataset fingerprint: changing the
        problem changes the campaign identity.
        """
        problem = self.problem()
        if self.app == "cg":
            return problem.point_source_rhs().reshape(-1)
        return problem.rhs().reshape(-1)

    # -- manifest round trip ------------------------------------------------

    def manifest_payload(self) -> dict:
        return {
            "name": self.app,
            "grid": self.grid,
            "iterations": list(self.iterations),
            "max_iterations": self.max_iterations,
            "tolerance": self.tolerance,
            "sdc_threshold": self.sdc_threshold,
        }

    @classmethod
    def from_manifest(cls, manifest: RunManifest) -> "AppCampaignConfig":
        if manifest.app is None:
            raise RunnerError("manifest does not describe an app campaign")
        payload = manifest.app
        return cls(
            app=str(payload["name"]),
            grid=int(payload["grid"]),
            iterations=tuple(int(step) for step in payload["iterations"]),
            trials_per_cell=manifest.trials_per_bit,
            bits=manifest.bits,
            seed=manifest.seed,
            fault=manifest.fault,
            max_iterations=int(payload["max_iterations"]),
            tolerance=float(payload["tolerance"]),
            sdc_threshold=float(payload["sdc_threshold"]),
        )


def cell_seeds(
    config: AppCampaignConfig, target: NumberFormat | str
) -> dict[int, np.random.SeedSequence]:
    """Deterministic per-cell seeds, a pure function of (seed, iteration, bit).

    Unlike value campaigns (which spawn one child per bit from a single
    root), app cells key the spawn path on the *injection iteration and
    bit directly*, so any process can reconstruct any cell's stream
    without walking a shared sequence — the discipline work-stealing
    replay relies on.
    """
    target = resolve(target)
    seeds: dict[int, np.random.SeedSequence] = {}
    for it_idx, iteration in enumerate(config.iterations):
        for bit in config.resolved_bits(target):
            cell = it_idx * target.nbits + bit
            seeds[cell] = np.random.SeedSequence(
                entropy=config.seed, spawn_key=(iteration, bit)
            )
    return seeds


# ---------------------------------------------------------------------------
# Trial records (the shard codec is repro.inject.results.ColumnarRecords)
# ---------------------------------------------------------------------------


@dataclass
class AppTrialRecords(ColumnarRecords):
    """Columnar app-campaign trial results.

    Shares the shard-file codec of :class:`repro.inject.results.TrialRecords`
    (schema comment, header, ``repr`` floats) but carries the solver
    outcome taxonomy instead of value-error metrics.  App shard files
    are LF-framed; value shards are CRLF.
    """

    trial: np.ndarray
    cell: np.ndarray
    iteration: np.ndarray
    bit: np.ndarray
    index: np.ndarray
    clean_iterations: np.ndarray
    faulty_iterations: np.ndarray
    converged: np.ndarray
    diverged: np.ndarray
    solution_error: np.ndarray
    outcome: np.ndarray
    fault_spec: np.ndarray | None = None

    COLUMNS = {
        "trial": INT,
        "cell": INT,
        "iteration": INT,
        "bit": INT,
        "index": INT,
        "clean_iterations": INT,
        "faulty_iterations": INT,
        "converged": BOOL,
        "diverged": BOOL,
        "solution_error": FLOAT,
        "outcome": STR,
        "fault_spec": OPTIONAL,
    }
    LINE_TERMINATOR = "\n"

    # The end-to-end benchmark traces these two per records class, so
    # each class binds them in its own namespace.
    to_csv_string = ColumnarRecords.to_csv_string
    read_csv = classmethod(ColumnarRecords.read_csv.__func__)

    @property
    def iteration_overhead(self) -> np.ndarray:
        return self.faulty_iterations - self.clean_iterations

    def for_bit(self, bit: int) -> "AppTrialRecords":
        return self.select(self.bit == bit)


# ---------------------------------------------------------------------------
# Solving and injecting
# ---------------------------------------------------------------------------


def _solve(config: AppCampaignConfig, target: NumberFormat, fault_hook=None):
    problem = config.problem()
    if config.app == "cg":
        return cg_solve(
            problem,
            target,
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
            fault_hook=fault_hook,
        )
    return jacobi_solve(
        problem,
        target,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
        fault_hook=fault_hook,
    )


def clean_solve(
    config: AppCampaignConfig, target: NumberFormat | str
) -> CGResult | SolveResult:
    """The fault-free solve of ``config`` in ``target``: every trial's reference.

    Solves on every call.  A campaign runner solves once per run and
    hands the result to every cell through its :class:`AppShardJob`.
    """
    return _solve(config, resolve(target))


def mask_injector(
    iteration: int, flat_index: int, masks: FaultMasks, target: NumberFormat
):
    """Solver fault hook: apply ``masks`` to one live state element.

    At solver iteration ``iteration`` the element at ``flat_index`` is
    encoded in ``target``, corrupted by the masks, and decoded back; every
    other iteration passes the state through.  A single flip of bit ``b``
    is ``FaultMasks(xor=1 << b, set=0, clear=0)``.  Campaigns draw masks
    from the shard RNG *before* the solve starts, so the injection is a
    pure function of (seed, iteration, bit) and never depends on solver
    state — the property cross-process replay requires.
    """

    def hook(step: int, state: np.ndarray) -> np.ndarray:
        if step != iteration:
            return state
        flat = state.reshape(-1).copy()
        bits = target.to_bits(flat[flat_index:flat_index + 1])
        corrupted = apply_masks(bits, masks, target.nbits)
        flat[flat_index] = target.from_bits(corrupted)[0]
        return flat.reshape(state.shape)

    return hook


@dataclass(frozen=True)
class AppTrial:
    """One faulty solve compared against the clean solve of its config."""

    clean_iterations: int
    faulty_iterations: int
    converged: bool
    diverged: bool
    solution_error: float  # relative L2 vs the clean solution

    @property
    def iteration_overhead(self) -> int:
        """Extra iterations the faulty solve needed."""
        return self.faulty_iterations - self.clean_iterations


def run_app_trial(
    config: AppCampaignConfig,
    target: NumberFormat | str,
    iteration: int,
    flat_index: int,
    masks: FaultMasks,
    clean: CGResult | SolveResult,
) -> AppTrial:
    """Solve once with :func:`mask_injector` at (iteration, flat_index, masks).

    The result is compared against ``clean``, the fault-free solve of
    ``config`` in ``target`` (:func:`clean_solve`).  ``iteration`` need
    not be in ``config.iterations``: the config supplies the app, grid,
    and solver budget.
    """
    target = resolve(target)
    faulty = _solve(
        config, target, fault_hook=mask_injector(iteration, flat_index, masks, target)
    )
    return AppTrial(
        clean_iterations=clean.iterations,
        faulty_iterations=faulty.iterations,
        converged=faulty.converged,
        diverged=faulty.diverged,
        solution_error=faulty.error_vs(clean.solution),
    )


def run_app_shard(
    config: AppCampaignConfig,
    target: NumberFormat | str,
    cell: int,
    trials: int,
    seed: np.random.SeedSequence | int,
    clean: CGResult | SolveResult,
) -> AppTrialRecords:
    """Run every trial of one (injection-iteration, bit) cell.

    Each trial is compared against ``clean``, the fault-free solve of
    ``config`` in ``target`` (:func:`clean_solve`).  RNG discipline
    matches ``run_campaign_shard``: one generator per shard, element
    indices drawn first, then per-trial fault masks — all before any
    solve, so replay never depends on solver state.
    """
    target = resolve(target)
    iteration, bit = config.cell_location(cell, target.nbits)
    resolved = resolve_fault(config.fault)
    model = resolved.for_bit(bit, target.nbits)
    rng = np.random.default_rng(seed)
    state_size = config.grid * config.grid
    indices = rng.integers(0, state_size, size=trials)
    trial_masks = [model.masks((), target.nbits, rng) for _ in range(trials)]

    results = [
        run_app_trial(config, target, iteration, int(indices[trial]), trial_masks[trial], clean)
        for trial in range(trials)
    ]
    converged = np.array([r.converged for r in results], dtype=bool)
    diverged = np.array([r.diverged for r in results], dtype=bool)
    faulty_iterations = np.array([r.faulty_iterations for r in results], dtype=np.int64)
    solution_error = np.array([r.solution_error for r in results], dtype=np.float64)
    clean_iterations = np.array([r.clean_iterations for r in results], dtype=np.int64)
    outcome = classify_outcomes(
        converged,
        diverged,
        faulty_iterations - clean_iterations,
        solution_error,
        config.sdc_threshold,
    )
    fault_column = None
    if not resolved.is_default:
        fault_column = np.full(trials, resolved.spec, dtype="<U32")
    return AppTrialRecords(
        trial=np.arange(trials, dtype=np.int64),
        cell=np.full(trials, cell, dtype=np.int64),
        iteration=np.full(trials, iteration, dtype=np.int64),
        bit=np.full(trials, bit, dtype=np.int64),
        index=indices.astype(np.int64),
        clean_iterations=clean_iterations,
        faulty_iterations=faulty_iterations,
        converged=converged,
        diverged=diverged,
        solution_error=solution_error,
        outcome=outcome,
        fault_spec=fault_column,
    )


# ---------------------------------------------------------------------------
# Runner integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AppShardJob:
    """What one app-campaign cell computes, in any process.

    Carries the run's fault-free solve, which the runner solves once;
    forked workers inherit it with the job.
    """

    config: AppCampaignConfig
    target: NumberFormat
    clean: CGResult | SolveResult

    def compute(self, cell: int, trials: int, seed) -> AppTrialRecords:
        return run_app_shard(self.config, self.target, cell, trials, seed, self.clean)


class AppCampaignRunner(CampaignRunner):
    """Campaign runner whose shards are app (iteration, bit) cells.

    Inherits persistence, resume, executors, chaos hardening, and
    observability wholesale; only planning, the shard job, and manifest
    identity differ.
    """

    records_class = AppTrialRecords

    def __init__(
        self,
        config: AppCampaignConfig,
        target: NumberFormat | str,
        **kwargs,
    ) -> None:
        self.app_config = config
        base = CampaignConfig(
            trials_per_bit=config.trials_per_cell,
            bits=config.bits,
            seed=config.seed,
            fault=config.fault,
        )
        kwargs.setdefault("dataset", {"kind": "app", "app": config.app})
        kwargs.setdefault("label", config.app)
        super().__init__(config.dataset_array(), target, base, **kwargs)

    def plan(self) -> list[ShardSpec]:
        return [
            ShardSpec(bit=cell, trials=self.app_config.trials_per_cell, seed=seed)
            for cell, seed in cell_seeds(self.app_config, self.target).items()
        ]

    def _fresh_manifest(self, shards):
        manifest = super()._fresh_manifest(shards)
        manifest.app = self.app_config.manifest_payload()
        return manifest

    def _build_job(self) -> AppShardJob:
        return AppShardJob(self.app_config, self.target, clean_solve(self.app_config, self.target))

    @classmethod
    def from_run_dir(cls, run_dir, data=None, **kwargs) -> "AppCampaignRunner":
        run_dir = Path(run_dir)
        manifest = RunManifest.load(run_dir)
        config = AppCampaignConfig.from_manifest(manifest)
        kwargs.setdefault("label", manifest.label)
        kwargs.setdefault("dataset", manifest.dataset)
        return cls(config, manifest.target_spec, run_dir=run_dir, **kwargs)


def run_app_campaign(
    config: AppCampaignConfig,
    target: NumberFormat | str,
    **kwargs,
):
    """One-call convenience mirroring :func:`repro.inject.campaign.run_campaign`."""
    resume = kwargs.pop("resume", False)
    runner = AppCampaignRunner(config, target, **kwargs)
    return runner.run(resume=resume)
