"""The field pipeline: the one store of a campaign's field.

A campaign encodes its field exactly once, in the ``FieldPipeline`` the
runner builds; the baseline, every shard, and the conversion report
read that store.  Its stored values must equal ``round_trip`` of the
raw field bit for bit, since the shard bytes depend on them.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.formats import available_formats, resolve
from repro.inject import (
    CampaignConfig,
    FieldPipeline,
    field_pipeline,
    run_campaign,
    run_single_trial,
)
from repro.runner import runner
from repro.telemetry import Telemetry


@pytest.fixture
def field(rng):
    return np.concatenate(
        [rng.normal(50, 20, 512), rng.lognormal(-2, 2, 512)]
    ).astype(np.float32)


class TestPipelineCache:
    def test_distinct_targets_do_not_collide(self, field):
        p16 = field_pipeline(resolve("posit16"), field)
        p32 = field_pipeline(resolve("posit32"), field)
        assert p16 is not p32
        assert p16.target.nbits == 16 and p32.target.nbits == 32

    @pytest.mark.parametrize("name", sorted(available_formats()))
    def test_pipeline_encodes_once(self, name, field):
        target = resolve(name)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
        raw = np.concatenate([field, special])
        pipeline = FieldPipeline(target, raw)
        assert np.array_equal(
            np.asarray(pipeline.bits), np.asarray(target.to_bits(raw))
        )
        assert np.array_equal(
            np.asarray(pipeline.stored, dtype=np.float64).view(np.uint64),
            np.asarray(target.round_trip(raw), dtype=np.float64).view(np.uint64),
        )


class TestStoreOnce:
    """An in-memory campaign encodes its field once and decodes it once."""

    @pytest.mark.parametrize("name", ["posit32", "ieee32", "posit16"])
    def test_campaign_stores_field_once(self, name, field):
        config = CampaignConfig(trials_per_bit=5, bits=(0, 3, 9, 15), seed=7)
        collector = Telemetry()
        result = run_campaign(field, name, config, telemetry=collector)
        counters = collector.snapshot().counters
        assert counters["formats.encode.values"] == field.size
        assert counters["formats.decode.values"] == field.size + result.trial_count


class TestPosit32DecodesWithoutTables:
    """A posit32 campaign decodes its field through the format's own
    table-free codec: the pipeline is ``direct`` and builds no table."""

    def test_pipeline_is_direct_without_tables(self, field):
        assert FieldPipeline(resolve("posit32"), field).target.backend_name == "direct"
        config = CampaignConfig(trials_per_bit=5, bits=(0, 9, 31), seed=7)
        collector = Telemetry()
        run_campaign(field, "posit32", config, jobs=1, telemetry=collector)
        counters = collector.snapshot().counters
        assert counters["inject.trials"] == 15
        assert not [name for name in counters if "tables_built" in name]


class TestFieldSizedMemory:
    """A 2^20 field encodes and decodes in cache-sized chunks, so a build
    peaks near its stored arrays, not at the codec's full-length temporaries."""

    @pytest.mark.parametrize("name", ["posit32", "posit16"])
    def test_build_peak_under_32_mb(self, name, rng):
        data = rng.standard_normal(1 << 20) * np.exp2(rng.integers(-40, 41, 1 << 20))
        target = resolve(name)
        tracemalloc.start()
        try:
            FieldPipeline(target, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"{name}: {peak / 2**20:.1f} MB"


class TestPipelineOwnership:
    """The runner owns its field's pipeline; no process-wide memo keeps it."""

    def test_pipeline_passes_through(self, field):
        pipeline = FieldPipeline(resolve("posit16"), field)
        assert field_pipeline(pipeline.target, pipeline) is pipeline
        assert field_pipeline(resolve("posit16"), pipeline) is pipeline

    def test_other_targets_pipeline_is_refused(self, field):
        pipeline = FieldPipeline(resolve("posit16"), field)
        with pytest.raises(ValueError, match="posit16, not posit32"):
            field_pipeline(resolve("posit32"), pipeline)

    def test_array_gets_a_new_pipeline(self, field):
        target = resolve("posit16")
        assert field_pipeline(target, field) is not field_pipeline(target, field)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pipeline_is_garbage_once_the_campaign_returns(self, field, jobs, monkeypatch):
        built = []

        def recording(target, data):
            pipeline = field_pipeline(target, data)
            built.append(weakref.ref(pipeline))
            return pipeline

        monkeypatch.setattr(runner, "field_pipeline", recording)
        config = CampaignConfig(trials_per_bit=3, bits=(0, 5, 9), seed=7)
        result = run_campaign(field, "posit16", config, jobs=jobs)
        assert result.trial_count == 9
        gc.collect()
        assert len(built) == 1
        assert built[0]() is None


class TestScalarRelErrConvention:
    """run_single_trial shares the zero-original convention of the
    vectorized path (pinned in tests/metrics/test_edgecases.py)."""

    def _trial(self, original, faulty_target_value, name="ieee32"):
        target = resolve(name)
        data = np.array([original], dtype=np.float64)
        stored = target.round_trip(data)
        bits = np.asarray(target.to_bits(stored))
        goal = np.asarray(target.to_bits(np.array([faulty_target_value])))
        flip = int(bits[0] ^ goal[0])
        assert flip != 0 and (flip & (flip - 1)) == 0, "need a single-bit flip"
        bit = flip.bit_length() - 1
        return run_single_trial(stored, 0, bit, target)

    def test_zero_original_nonzero_faulty_is_nan(self):
        result = self._trial(0.0, 2.0 ** -126)
        assert result.original == 0.0 and result.faulty != 0.0
        assert np.isnan(result.rel_err)

    def test_zero_original_zero_faulty_is_zero(self):
        # Flipping the IEEE sign bit of +0.0 lands on -0.0.
        result = self._trial(0.0, -0.0)
        assert result.original == 0.0 and result.faulty == 0.0
        assert result.rel_err == 0.0

    def test_nonzero_original_plain_ratio(self):
        target = resolve("posit16")
        data = np.array([8.0])
        result = run_single_trial(data, 0, 3, target)
        expected = abs(result.original - result.faulty) / abs(result.original)
        assert result.rel_err == expected
