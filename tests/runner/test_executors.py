"""Tests for the pluggable executor layer (repro.runner.executors)."""

import os

import numpy as np
import pytest

from repro.datasets.registry import get as get_preset
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.runner import (
    RunManifest,
    RunnerError,
    executors,
    load_run_records,
    resume_campaign,
    verify_run,
)
from repro.runner.executors import (
    EXECUTOR_REGISTRY,
    Executor,
    PoolExecutor,
    SerialExecutor,
    WorkStealingExecutor,
    resolve_executor,
)
from tests.runner.test_runner import RecordingHooks

EXECUTOR_NAMES = ("serial", "pool", "work-stealing")


class TestResolveExecutor:
    def test_none_with_one_job_is_serial(self):
        assert isinstance(resolve_executor(None, jobs=1, pending=8), SerialExecutor)

    def test_none_with_one_pending_is_serial(self):
        assert isinstance(resolve_executor(None, jobs=4, pending=1), SerialExecutor)

    def test_none_with_real_parallelism_is_pool(self):
        assert isinstance(resolve_executor(None, jobs=4, pending=8), PoolExecutor)

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_registry_names_resolve(self, name):
        executor = resolve_executor(name)
        assert executor.name == name
        assert isinstance(executor, EXECUTOR_REGISTRY[name])

    def test_instance_passes_through(self):
        instance = WorkStealingExecutor()
        assert resolve_executor(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("carrier-pigeon")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="Executor instance"):
            resolve_executor(42)

    def test_registry_covers_all_names(self):
        assert set(EXECUTOR_REGISTRY) == set(EXECUTOR_NAMES)
        for cls in EXECUTOR_REGISTRY.values():
            assert issubclass(cls, Executor)


def _assert_results_identical(a, b) -> None:
    assert a.target_name == b.target_name
    assert a.trial_count == b.trial_count
    for column in a.records.column_names():
        lhs = getattr(a.records, column)
        rhs = getattr(b.records, column)
        assert np.array_equal(lhs, rhs, equal_nan=lhs.dtype.kind == "f"), column


class TestExecutorsBitIdentical:
    """The acceptance gate: every executor produces the same run."""

    def test_all_executors_match_and_verify(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=5, bits=tuple(range(8)), seed=42)
        results = {}
        for name in EXECUTOR_NAMES:
            run_dir = tmp_path / name
            results[name] = run_campaign(
                small_field, "posit16", config, jobs=2,
                run_dir=run_dir, executor=name,
            )
            assert results[name].extras["executor"] == name
            assert RunManifest.load(run_dir).executor == name
            report = verify_run(run_dir)
            assert report.ok, report.render()

        _assert_results_identical(results["serial"], results["pool"])
        _assert_results_identical(results["serial"], results["work-stealing"])

        # The shard CSVs on disk must be byte-identical too: the run
        # directories differ only in events/telemetry/lease bookkeeping.
        for name in ("pool", "work-stealing"):
            for bit in config.bits:
                serial_shard = RunManifest.shard_path(tmp_path / "serial", bit)
                other_shard = RunManifest.shard_path(tmp_path / name, bit)
                assert serial_shard.read_bytes() == other_shard.read_bytes(), (
                    f"{name} shard bit={bit} diverged from serial"
                )

    def test_executor_instance_accepted(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=3, bits=(0, 5, 15), seed=7)
        result = run_campaign(
            small_field, "posit16", config, jobs=2, run_dir=tmp_path / "run",
            executor=WorkStealingExecutor(),
        )
        assert result.extras["executor"] == "work-stealing"
        assert result.trial_count == 9

    def test_serial_name_without_run_dir(self, small_field):
        config = CampaignConfig(trials_per_bit=3, bits=(0, 1), seed=7)
        result = run_campaign(small_field, "posit16", config, executor="serial")
        assert result.extras["executor"] == "serial"

    def test_work_stealing_requires_run_dir(self, small_field):
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=7)
        with pytest.raises(RunnerError, match="run directory"):
            run_campaign(small_field, "posit16", config, executor="work-stealing")

    def test_unknown_executor_name_surfaces(self, small_field):
        with pytest.raises(ValueError, match="unknown executor"):
            run_campaign(
                small_field, "posit16",
                CampaignConfig(trials_per_bit=2, bits=(0,), seed=7),
                executor="quantum",
            )


class TestWorkStealingOnlyAdopts:
    """The calling process computes nothing: every shard is adopted."""

    def test_result_equals_records_on_disk(self, tmp_path):
        # Bits 23-30 of ieee32 hit the exponent, so faulty values carry
        # NaN payloads that the shard CSV writes as a plain ``nan``.
        data = get_preset("nyx/dark-matter-density").generate(seed=2023, size=1 << 10)
        config = CampaignConfig(trials_per_bit=64, bits=tuple(range(23, 31)), seed=2023)
        run_dir = tmp_path / "run"
        hooks = RecordingHooks()
        result = run_campaign(data, "ieee32", config, jobs=1, run_dir=run_dir,
                              executor="work-stealing", hooks=hooks)
        on_disk = load_run_records(run_dir)
        for column in result.records.column_names():
            lhs = getattr(result.records, column)
            rhs = getattr(on_disk, column)
            if lhs.dtype.kind == "f":
                lhs, rhs = lhs.view(np.int64), rhs.view(np.int64)
            assert np.array_equal(lhs, rhs), column
        adopted = [e.bit for e in hooks.events if e.kind == "shard_adopted"]
        assert sorted(adopted) == list(config.bits)
        assert result.extras["shard_retries"] == 0

    def test_all_children_exit_fails_resumably(self, small_field, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(executors, "_work_stealing_child",
                            lambda *args: os._exit(1))
        config = CampaignConfig(trials_per_bit=3, bits=(0, 1, 2), seed=7)
        run_dir = tmp_path / "run"
        with pytest.raises(RunnerError,
                           match=r"bit\(s\) \[0, 1, 2\].*campaign resume"):
            run_campaign(small_field, "posit16", config, jobs=2,
                         run_dir=run_dir, executor="work-stealing")
        monkeypatch.undo()
        result = resume_campaign(run_dir, small_field)
        assert result.trial_count == 9
        assert verify_run(run_dir).ok

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_resume_recomputes_a_quarantined_shard(self, small_field, tmp_path,
                                                   name):
        # The quarantined shard's done record stays behind; without its
        # file it must not count as done.
        config = CampaignConfig(trials_per_bit=8, bits=tuple(range(8)), seed=42)
        run_dir = tmp_path / "run"
        clean = run_campaign(small_field, "posit16", config, run_dir=run_dir,
                             executor="serial")
        shard = RunManifest.shard_path(run_dir, 3)
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        shard.write_bytes(bytes(raw))

        result = run_campaign(small_field, "posit16", config, jobs=2,
                              run_dir=run_dir, resume=True, executor=name)
        assert result.extras["shards_quarantined"] == 1
        assert result.extras["resumed_shards"] == 7
        _assert_results_identical(result, clean)
        assert not verify_run(run_dir).errors


class TestManifestRecordsExecutor:
    def test_auto_policy_records_resolved_name(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1, 2), seed=3)
        run_campaign(small_field, "posit16", config, jobs=1,
                     run_dir=tmp_path / "run")
        assert RunManifest.load(tmp_path / "run").executor == "serial"

    def test_executor_excluded_from_identity(self, small_field, tmp_path):
        # Resuming under a different executor must not trip the identity
        # check — executor choice is mechanism, not campaign identity.
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1, 2), seed=3)
        run_campaign(small_field, "posit16", config, run_dir=tmp_path / "run",
                     executor="serial")
        manifest = RunManifest.load(tmp_path / "run")
        manifest.executor = "work-stealing"
        assert manifest.identity() == RunManifest.load(tmp_path / "run").identity()
