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


# -- codec backends: table-served vs vectorized arithmetic ------------------
#
# The lut backend answers from_bits/classify_bits out of exhaustive
# tables for <= 16-bit formats; these pairs quantify what that buys per
# narrow format (tables are built once outside the timed region).  Every
# backend encodes with the format's own encoder, so encode is timed once.

CODEC_SPECS = ("posit16", "ieee16", "bfloat16")


@pytest.fixture(scope="module", params=CODEC_SPECS)
def codec_pair(request):
    from repro.formats import get_format

    direct = get_format(request.param, backend="direct")
    lut = get_format(request.param, backend="lut")
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 1 << direct.nbits, N).astype(direct.dtype)
    lut.from_bits(bits)  # force table construction before timing
    lut.classify_bits(bits, 0)
    return direct, lut, bits


def test_codec_decode_direct(benchmark, codec_pair):
    direct, _, bits = codec_pair
    assert len(benchmark(direct.from_bits, bits)) == N


def test_codec_decode_lut(benchmark, codec_pair):
    _, lut, bits = codec_pair
    assert len(benchmark(lut.from_bits, bits)) == N


def test_codec_classify_direct(benchmark, codec_pair):
    direct, _, bits = codec_pair
    assert len(benchmark(direct.classify_bits, bits, 7)) == N


def test_codec_classify_lut(benchmark, codec_pair):
    _, lut, bits = codec_pair
    assert len(benchmark(lut.classify_bits, bits, 7)) == N


def test_codec_encode_direct(benchmark, codec_pair):
    direct, _, bits = codec_pair
    values = direct.from_bits(bits)
    values = np.where(np.isfinite(values), values, 1.0)
    assert len(benchmark(direct.to_bits, values)) == N
