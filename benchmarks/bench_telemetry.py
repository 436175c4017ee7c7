"""Telemetry overhead smoke benchmark.

The contract of :mod:`repro.telemetry` is that instrumentation which is
*disabled* (the default) costs almost nothing: each instrumented hot
path pays one ``get_telemetry()`` lookup and one ``enabled`` attribute
read per vectorized batch, then takes the uninstrumented code path.
This bench measures that directly by timing the public (guarded) trial
loop against the private uninstrumented implementation, and prints the
enabled-profiling cost alongside for context.

Run standalone:

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -s -q
"""

import time

import numpy as np
import pytest

from repro.formats import resolve
from repro.inject.faults import SingleBitFlip
from repro.inject.trial import _run_bit_trials, field_pipeline, run_bit_trials
from repro.metrics.summary import SummaryStats
from repro.telemetry import DISABLED, Telemetry, telemetry_scope

#: Trials per timed batch — large enough that the per-batch guard cost
#: is amortized the way real campaigns amortize it.
TRIALS = 4096

#: Disabled telemetry must cost less than this fraction of the
#: uninstrumented loop (the PR's acceptance criterion is 5%).
MAX_DISABLED_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def trial_args():
    rng = np.random.default_rng(2023)
    data = rng.normal(loc=50.0, scale=10.0, size=1 << 14)
    target = resolve("posit32")
    # The field's one store, built outside every timed call as a
    # campaign runner builds it, so each call times the trials alone.
    pipeline = field_pipeline(target, data)
    baseline = SummaryStats.from_array(pipeline.stored)
    indices = np.random.default_rng(7).integers(0, pipeline.size, size=TRIALS)
    return pipeline, indices, target, baseline


def _best_of(fn, repeats=7):
    """Minimum wall time over several runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_overhead_under_threshold(trial_args):
    pipeline, indices, target, baseline = trial_args

    fault = SingleBitFlip(20)

    def uninstrumented():
        _run_bit_trials(
            pipeline, indices, 20, target, baseline, np.random.default_rng(0), fault
        )

    def guarded_disabled():
        with telemetry_scope(DISABLED):
            run_bit_trials(pipeline, indices, 20, target, baseline)

    def enabled():
        with telemetry_scope(Telemetry()):
            run_bit_trials(pipeline, indices, 20, target, baseline)

    # warm the codec tables before timing anything
    uninstrumented()

    base = _best_of(uninstrumented)
    disabled = _best_of(guarded_disabled)
    profiled = _best_of(enabled)

    overhead = disabled / base - 1.0
    print(
        f"\n[bench_telemetry] {TRIALS} trials/batch: "
        f"uninstrumented {base * 1e3:.2f}ms, "
        f"disabled {disabled * 1e3:.2f}ms ({overhead:+.2%}), "
        f"profiled {profiled * 1e3:.2f}ms ({profiled / base - 1.0:+.2%})"
    )
    # allow a small absolute floor so sub-ms timer jitter cannot fail
    # the relative check on very fast machines
    assert disabled - base < max(MAX_DISABLED_OVERHEAD * base, 200e-6), (
        f"disabled telemetry overhead {overhead:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%}"
    )


def test_trial_loop_disabled(benchmark, trial_args):
    pipeline, indices, target, baseline = trial_args
    run_bit_trials(pipeline, indices, 20, target, baseline)  # warm caches

    def loop():
        with telemetry_scope(DISABLED):
            return run_bit_trials(pipeline, indices, 20, target, baseline)

    records = benchmark(loop)
    assert len(records) == TRIALS


def test_trial_loop_profiled(benchmark, trial_args):
    pipeline, indices, target, baseline = trial_args
    collector = Telemetry()

    def loop():
        with telemetry_scope(collector):
            return run_bit_trials(pipeline, indices, 20, target, baseline)

    records = benchmark(loop)
    assert len(records) == TRIALS
    assert collector.snapshot().counters["inject.trials"] >= TRIALS


def test_span_enter_exit_cost(benchmark):
    collector = Telemetry()

    def spin():
        with collector.span("bench.span"):
            pass

    benchmark(spin)
