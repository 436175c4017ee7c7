"""Shared campaign execution for the experiment modules.

Several figures aggregate the *same* campaign differently (Figs. 10, 11,
14, 16, 18, 20 all consume per-field posit campaigns), so campaign
results are memoized per (field, target, scale) within the process.
"""

from __future__ import annotations

from repro.datasets.registry import get as get_preset
from repro.experiments.base import ExperimentParams
from repro.inject.campaign import CampaignConfig, CampaignResult, run_campaign

_CACHE: dict[tuple, CampaignResult] = {}


def field_campaign(
    field_key: str,
    target_name: str,
    params: ExperimentParams,
    bits: tuple[int, ...] | None = None,
    fault: str = "single",
) -> CampaignResult:
    """Run (or reuse) a campaign for one dataset field, target, and fault model."""
    config = CampaignConfig(
        trials_per_bit=params.trials_per_bit, bits=bits, seed=params.seed, fault=fault
    )
    cache_key = (
        field_key, target_name, params.data_size, params.trials_per_bit,
        params.seed, bits, config.fault,
    )
    if cache_key in _CACHE:
        return _CACHE[cache_key]
    preset = get_preset(field_key)
    data = preset.generate(seed=params.seed, size=params.data_size)
    # jobs is not part of the cache key: worker count never changes results.
    result = run_campaign(data, target_name, config, label=field_key, jobs=params.jobs)
    _CACHE[cache_key] = result
    return result


def merged_records(results: list[CampaignResult]):
    """Concatenate the records of several campaigns (multi-field pools)."""
    from repro.inject.results import TrialRecords

    return TrialRecords.concatenate([result.records for result in results])
