"""Ablation benches for the design choices DESIGN.md calls out.

* trials-per-bit: campaign cost scales linearly; the paper's 313 is the
  accuracy/cost point ext-theory quantifies;
* parallel workers: scatter/gather speedup of the per-bit sharding;
* vectorized vs scalar trial execution: the NumPy-hot-path design;
* fast vs exact posit arithmetic: why the float64 path is the default.
"""

import numpy as np
import pytest

from repro.datasets.registry import get as get_preset
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.formats import resolve
from repro.inject.trial import field_pipeline, run_bit_trials, run_single_trial
from repro.metrics.summary import SummaryStats
from repro.posit.arithmetic import multiply
from repro.posit.config import POSIT16

DATA = get_preset("hurricane/pf48").generate(seed=0, size=1 << 14)


@pytest.mark.parametrize("trials", [39, 156, 313])
def test_ablation_trials_per_bit(benchmark, trials):
    config = CampaignConfig(trials_per_bit=trials, seed=0)
    result = benchmark.pedantic(
        run_campaign, args=(DATA, "posit32", config), rounds=3, iterations=1
    )
    assert result.trial_count == trials * 32


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_ablation_parallel_workers(benchmark, workers):
    config = CampaignConfig(trials_per_bit=128, seed=0)
    result = benchmark.pedantic(
        run_campaign,
        args=(DATA, "posit32", config),
        kwargs={"jobs": workers},
        rounds=3,
        iterations=1,
    )
    assert result.trial_count == 128 * 32


def test_ablation_vectorized_trials(benchmark):
    target = resolve("posit32")
    # Built once, outside the timed call, as a campaign runner builds it.
    pipeline = field_pipeline(target, DATA)
    baseline = SummaryStats.from_array(pipeline.stored)
    indices = np.random.default_rng(0).integers(0, pipeline.size, 313)

    records = benchmark(run_bit_trials, pipeline, indices, 28, target, baseline)
    assert len(records) == 313


def test_ablation_scalar_trials(benchmark):
    target = resolve("posit32")
    stored = target.round_trip(DATA)
    indices = np.random.default_rng(0).integers(0, stored.size, 313)

    def scalar_loop():
        return [run_single_trial(stored, int(i), 28, target) for i in indices]

    results = benchmark.pedantic(scalar_loop, rounds=3, iterations=1)
    assert len(results) == 313


def test_ablation_fast_arithmetic(benchmark, rng=np.random.default_rng(1)):
    a = rng.integers(0, 1 << 16, 512, dtype=np.uint64).astype(np.uint16)
    b = rng.integers(0, 1 << 16, 512, dtype=np.uint64).astype(np.uint16)
    result = benchmark(multiply, a, b, POSIT16)
    assert len(np.asarray(result)) == 512


def test_ablation_exact_arithmetic(benchmark, rng=np.random.default_rng(1)):
    a = rng.integers(0, 1 << 16, 512, dtype=np.uint64).astype(np.uint16)
    b = rng.integers(0, 1 << 16, 512, dtype=np.uint64).astype(np.uint16)

    result = benchmark.pedantic(
        multiply, args=(a, b, POSIT16), kwargs={"mode": "exact"},
        rounds=2, iterations=1,
    )
    assert len(np.asarray(result)) == 512
