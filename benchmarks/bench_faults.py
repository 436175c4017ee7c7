"""Fault-model throughput: the per-shard campaign path under every model.

Replays one campaign field through :func:`repro.inject.campaign.
run_campaign_shard`, one shard per bit position as a campaign runs it,
under every registered fault model (one canonical example per grammar
production).  The number that matters is ``relative_to_single`` — the
model's per-shard throughput as a fraction of the ``single`` baseline's.
Flip models ride the same whole-array mask arithmetic as ``single``, so
this should stay near 1; stochastic mask construction (``random``,
``burst``) pays for its per-trial RNG draws, and the committed value is
the regression floor for the fault-model CI job.  Each model is timed
best of ``REPEATS`` so one scheduling hiccup does not set the ratio.

Results land in ``BENCH_faults.json`` (with a history list).

Run standalone:

    PYTHONPATH=src python benchmarks/bench_faults.py

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -s -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.formats import resolve
from repro.inject.campaign import CampaignConfig, bit_seeds, run_campaign_shard
from repro.inject.results import TrialRecords
from repro.inject.trial import field_pipeline
from repro.metrics.summary import SummaryStats

OUT_PATH = Path(__file__).resolve().parent / "BENCH_faults.json"

TRIALS_PER_BIT = int(os.environ.get("REPRO_BENCH_FAULT_TRIALS", "128"))
FIELD_SIZE = 1 << int(os.environ.get("REPRO_BENCH_FIELD_POW2", "13"))
TARGET = os.environ.get("REPRO_BENCH_FAULT_TARGET", "posit32")
SEED = 2023
REPEATS = 7

#: One canonical spec per grammar production, widest-impact parameters
#: kept fixed so the trajectory stays comparable across commits.
FAULT_SPECS = ("single", "adjacent(2)", "random(2)", "burst(4,0.5)", "stuckat(31,1)")


def _field() -> np.ndarray:
    rng = np.random.default_rng(SEED)
    return np.concatenate([
        rng.normal(50.0, 20.0, FIELD_SIZE // 2),
        rng.lognormal(-2, 2, FIELD_SIZE // 2),
    ]).astype(np.float32)


def _per_shard(pipeline, target, baseline, config) -> TrialRecords:
    seeds = bit_seeds(config, target)
    return TrialRecords.concatenate([
        run_campaign_shard(
            pipeline, target, bit, config.trials_per_bit, seeds[bit], baseline,
            fault_spec=config.fault,
        )
        for bit in config.resolved_bits(target)
    ])


def run_bench() -> dict:
    target = resolve(TARGET)
    # The field's one store, built once as a campaign runner builds it:
    # every timed shard reads it, none re-encodes the field.
    pipeline = field_pipeline(target, _field())
    baseline = SummaryStats.from_array(pipeline.stored)
    trials_total = TRIALS_PER_BIT * target.nbits

    # Build the decode tables outside every timed region.
    _per_shard(pipeline, target, baseline, CampaignConfig(trials_per_bit=2, seed=SEED))

    results = {}
    for spec in FAULT_SPECS:
        config = CampaignConfig(trials_per_bit=TRIALS_PER_BIT, seed=SEED, fault=spec)
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            records = _per_shard(pipeline, target, baseline, config)
            seconds.append(time.perf_counter() - start)
        assert len(records) == trials_total, f"{spec}: {len(records)} records"
        best = min(seconds)
        results[spec] = {
            "fault": spec,
            "trials_total": trials_total,
            "per_shard_seconds": round(best, 4),
            "per_shard_trials_per_sec": round(trials_total / best, 1),
        }
    single = results["single"]["per_shard_trials_per_sec"]
    for row in results.values():
        row["relative_to_single"] = round(row["per_shard_trials_per_sec"] / single, 3)
    return {
        "campaign": {
            "target": TARGET,
            "field_size": FIELD_SIZE,
            "trials_per_bit": TRIALS_PER_BIT,
            "faults": list(FAULT_SPECS),
            "seed": SEED,
            "repeats": REPEATS,
        },
        "results": results,
    }


def test_fault_model_throughput():
    payload = run_bench()
    history = []
    if OUT_PATH.exists():
        previous = json.loads(OUT_PATH.read_text(encoding="utf-8"))
        history = previous.get("history", [])
        history.append({
            spec: row["relative_to_single"]
            for spec, row in previous["results"].items()
        })
    payload["history"] = history[-20:]
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for row in payload["results"].values():
        print(
            f"{row['fault']:<14s} per-shard {row['per_shard_trials_per_sec']:>10.1f} trials/s   "
            f"vs single {row['relative_to_single']:5.3f}"
        )
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    test_fault_model_throughput()
