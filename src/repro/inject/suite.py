"""Campaign suites: the paper's full evaluation as one orchestrated run.

The paper executes one campaign per (dataset field x number system) and
collects the trial logs for offline analysis.  A :class:`SuiteConfig`
names that grid, and :func:`run_suite` runs it (each campaign internally
parallel) and persists every cell as an ordinary runner run directory
under the output directory::

    out/
      cesm__cloud--ieee32/      <- run_campaign(..., run_dir=...) for one cell
      cesm__cloud--posit32/
      ...

Each cell is checksummed, resumable, and auditable like any other run:
``campaign status/verify/resume`` accept a cell directory.  Rerunning a
suite resumes every cell through the runner, so an interrupted
multi-hour sweep continues where it stopped, a corrupt shard is
quarantined and recomputed, and a cell holding a different campaign
(another trial count or seed) fails loudly instead of being reused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.datasets.registry import get as get_preset, keys as dataset_keys
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.inject.results import TrialRecords

@dataclass(frozen=True)
class SuiteConfig:
    """What to run: the (fields x targets) grid and campaign parameters."""

    fields: tuple[str, ...]
    targets: tuple[str, ...] = ("ieee32", "posit32")
    data_size: int = 1 << 17
    trials_per_bit: int = 313
    seed: int = 2023

    @classmethod
    def paper_grid(cls, **overrides) -> "SuiteConfig":
        """All sixteen Table 1 fields against both 32-bit systems."""
        return cls(fields=tuple(dataset_keys()), **overrides)

    def campaign_config(self) -> CampaignConfig:
        return CampaignConfig(trials_per_bit=self.trials_per_bit, seed=self.seed)


@dataclass
class SuiteResult:
    """Handle to a completed (or partially completed) suite directory."""

    config: SuiteConfig
    directory: Path
    completed: list[tuple[str, str]] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def cell_dir(self, field_key: str, target: str) -> Path:
        """One (field, target) cell's run directory."""
        return self.directory / f"{field_key.replace('/', '__')}--{target}"

    def records(self, field_key: str, target: str) -> TrialRecords:
        """Load one cell's trusted trial records from its run directory."""
        from repro.runner import MANIFEST_NAME, load_run_records

        cell = self.cell_dir(field_key, target)
        if not (cell / MANIFEST_NAME).is_file():
            raise FileNotFoundError(f"no run for ({field_key}, {target}) at {cell}")
        return load_run_records(cell)


def run_suite(
    config: SuiteConfig,
    directory: str | os.PathLike,
    jobs: int | None = None,
    progress=None,
    hooks=None,
) -> SuiteResult:
    """Run (or resume) the full campaign grid.

    Each cell executes through the unified runner
    (:func:`repro.inject.run_campaign` with ``jobs=jobs`` and a run
    directory), so the grid inherits its worker validation,
    retry/fallback behavior, determinism guarantees, and verified
    shard-level resume.

    Parameters
    ----------
    directory:
        Output directory holding one run directory per (field, target)
        cell (created if missing).  A directory in the retired CSV-log
        layout (a root ``manifest.json``) is refused.
    jobs:
        Per-campaign worker processes (``None`` auto-sizes).
    progress:
        Optional ``progress(field, target, result_or_none)`` callback;
        ``None`` signals a cell restored whole from its run directory
        (no shard recomputed).
    hooks:
        Optional runner event hooks applied to every campaign
        (:mod:`repro.runner.events`).
    """
    from repro.runner import MANIFEST_NAME, RunnerError

    out_dir = Path(directory)
    if (out_dir / MANIFEST_NAME).is_file():
        # The retired CSV-log layout kept a suite manifest at the root
        # (a single run directory has one there too).
        raise RunnerError(
            f"{out_dir} has a root {MANIFEST_NAME}: it holds a suite in the old "
            "CSV-log layout or a single run, not a suite of run directories.  "
            "Suites now persist each (field, target) cell as a checksummed run "
            "directory; rerun into a fresh directory (old CSV logs stay "
            "readable with TrialRecords.read_csv)"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    result = SuiteResult(config=config, directory=out_dir)

    for field_key in config.fields:
        preset = get_preset(field_key)  # fail fast on unknown fields
        data = preset.generate(seed=config.seed, size=config.data_size)
        for target in config.targets:
            cell = result.cell_dir(field_key, target)
            campaign = run_campaign(
                data, target, config.campaign_config(),
                label=field_key, jobs=jobs, hooks=hooks, run_dir=cell,
                dataset={"kind": "preset", "field": field_key,
                         "size": config.data_size, "seed": config.seed},
                resume=(cell / MANIFEST_NAME).is_file(),
            )
            # Every shard restored, none recomputed: the cell was complete.
            restored = campaign.extras["resumed_shards"] * config.trials_per_bit
            if restored == campaign.trial_count:
                result.skipped.append((field_key, target))
                campaign = None
            else:
                result.completed.append((field_key, target))
            if progress is not None:
                progress(field_key, target, campaign)
    return result
