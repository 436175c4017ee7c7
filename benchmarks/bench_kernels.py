"""Micro-benchmarks of the substrate kernels.

These time the machinery itself rather than a figure: posit
encode/decode throughput, field decomposition, IEEE flips, single-bit
trial batches, and a full uncached campaign.  They are the numbers a
user sizing a larger fault-injection study needs.
"""

import numpy as np
import pytest

from repro.datasets.registry import get as get_preset
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.formats import resolve
from repro.inject.trial import field_pipeline, run_bit_trials
from repro.metrics.summary import SummaryStats
from repro.posit.config import POSIT32
from repro.posit.decode import decode
from repro.posit.encode import encode
from repro.posit.fields import decompose

N = 1 << 16


@pytest.fixture(scope="module")
def values():
    return get_preset("nyx/temperature").generate(seed=0, size=N).astype(np.float64)


@pytest.fixture(scope="module")
def patterns(values):
    return np.asarray(encode(values, POSIT32))


def test_posit_encode_throughput(benchmark, values):
    result = benchmark(encode, values, POSIT32)
    assert len(np.asarray(result)) == N


def test_posit_decode_throughput(benchmark, patterns):
    result = benchmark(decode, patterns, POSIT32)
    assert len(np.asarray(result)) == N


def test_posit_decompose_throughput(benchmark, patterns):
    fields = benchmark(decompose, patterns, POSIT32)
    assert fields.sign.shape == (N,)


def test_ieee_flip_throughput(benchmark, values):
    from repro.ieee import BINARY32, flip_float_bit

    values32 = values.astype(np.float32)
    result = benchmark(flip_float_bit, values32, 20, BINARY32)
    assert len(result) == N


def test_bit_trial_batch(benchmark, values):
    target = resolve("posit32")
    # Built once, outside the timed call, as a campaign runner builds it.
    pipeline = field_pipeline(target, values)
    baseline = SummaryStats.from_array(pipeline.stored)
    indices = np.random.default_rng(0).integers(0, pipeline.size, 313)

    records = benchmark(
        run_bit_trials, pipeline, indices, 28, target, baseline
    )
    assert len(records) == 313


def test_full_campaign_posit32(benchmark, values):
    config = CampaignConfig(trials_per_bit=64, seed=0)

    result = benchmark(run_campaign, values, "posit32", config)
    assert result.trial_count == 64 * 32


def test_full_campaign_ieee32(benchmark, values):
    config = CampaignConfig(trials_per_bit=64, seed=0)

    result = benchmark(run_campaign, values, "ieee32", config)
    assert result.trial_count == 64 * 32


# -- codec tables: table gathers vs the raw codec ---------------------------
#
# A software layout of at most 16 bits (posit16 here) answers
# from_bits/classify_bits from exhaustive tables; each pair times that
# gather against the raw codec call it stands in for (decode_raw /
# classify_raw, the calls the backend-agreement check compares).  ieee16
# and bfloat16 are hardware layouts without tables, so their pairs time
# the public entry point against the same raw call.  Tables are built
# once outside the timed region.  Every format has one encoder, timed once.

CODEC_SPECS = ("posit16", "ieee16", "bfloat16")


@pytest.fixture(scope="module", params=CODEC_SPECS)
def codec_case(request):
    fmt = resolve(request.param)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 1 << fmt.nbits, N).astype(fmt.dtype)
    fmt.from_bits(bits)  # force table construction before timing
    fmt.classify_bits(bits, 7)
    return fmt, bits


def test_codec_decode_raw(benchmark, codec_case):
    fmt, bits = codec_case
    assert len(benchmark(fmt.decode_raw, bits)) == N


def test_codec_decode_from_bits(benchmark, codec_case):
    fmt, bits = codec_case
    assert len(benchmark(fmt.from_bits, bits)) == N


def test_codec_classify_raw(benchmark, codec_case):
    fmt, bits = codec_case
    assert len(benchmark(fmt.classify_raw, bits, 7)) == N


def test_codec_classify_bits(benchmark, codec_case):
    fmt, bits = codec_case
    assert len(benchmark(fmt.classify_bits, bits, 7)) == N


def test_codec_encode(benchmark, codec_case):
    fmt, bits = codec_case
    values = fmt.from_bits(bits)
    values = np.where(np.isfinite(values), values, 1.0)
    assert len(benchmark(fmt.to_bits, values)) == N
