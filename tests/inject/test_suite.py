"""Tests for campaign suite orchestration."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.registry import get as get_preset
from repro.inject.campaign import run_campaign
from repro.inject.suite import SuiteConfig, run_suite
from repro.runner import RunManifest, RunnerError, run_status, verify_run
from tests.runner.test_runner import assert_records_identical


@pytest.fixture
def small_config():
    return SuiteConfig(
        fields=("cesm/cloud", "hurricane/uf30"),
        targets=("ieee32", "posit32"),
        data_size=1 << 11,
        trials_per_bit=3,
        seed=5,
    )


def _cells(config, result):
    return [
        result.cell_dir(field_key, target)
        for field_key in config.fields
        for target in config.targets
    ]


class TestSuiteConfig:
    def test_paper_grid_covers_all_fields(self):
        config = SuiteConfig.paper_grid(trials_per_bit=1)
        assert len(config.fields) == 16
        assert config.targets == ("ieee32", "posit32")

    def test_log_name(self, small_config, tmp_path):
        # Cells keep the old per-campaign log name, as run directories.
        result = run_suite(small_config, tmp_path, jobs=1)
        assert result.cell_dir("cesm/cloud", "posit32") == tmp_path / "cesm__cloud--posit32"


class TestRunSuite:
    def test_runs_full_grid(self, small_config, tmp_path):
        result = run_suite(small_config, tmp_path, jobs=1)
        assert len(result.completed) == 4
        assert result.skipped == []
        for field_key in small_config.fields:
            for target in small_config.targets:
                records = result.records(field_key, target)
                assert len(records) == 3 * 32

    def test_manifest_written(self, small_config, tmp_path):
        result = run_suite(small_config, tmp_path, jobs=1)
        assert not (tmp_path / "manifest.json").exists()
        for cell in _cells(small_config, result):
            manifest = RunManifest.load(cell)
            assert manifest.trials_per_bit == 3
            assert manifest.status == "completed"
            assert manifest.dataset["kind"] == "preset"

    def test_resume_skips_existing(self, small_config, tmp_path):
        run_suite(small_config, tmp_path, jobs=1)
        second = run_suite(small_config, tmp_path, jobs=1)
        assert second.completed == []
        assert len(second.skipped) == 4

    def test_progress_callback(self, small_config, tmp_path):
        seen = []
        run_suite(
            small_config, tmp_path, jobs=1,
            progress=lambda field, target, campaign: seen.append((field, target, campaign is None)),
        )
        assert len(seen) == 4
        assert all(not skipped for _, _, skipped in seen)

    def test_results_deterministic_across_runs(self, small_config, tmp_path_factory):
        a_dir = tmp_path_factory.mktemp("a")
        b_dir = tmp_path_factory.mktemp("b")
        a = run_suite(small_config, a_dir, jobs=1)
        b = run_suite(small_config, b_dir, jobs=2)
        ra = a.records("cesm/cloud", "posit32")
        rb = b.records("cesm/cloud", "posit32")
        assert np.array_equal(ra.faulty, rb.faulty, equal_nan=True)

    def test_missing_log_raises(self, small_config, tmp_path):
        result = run_suite(small_config, tmp_path, jobs=1)
        with pytest.raises(FileNotFoundError):
            result.records("nyx/temperature", "posit32")

    def test_unknown_field_fails_fast(self, tmp_path):
        config = SuiteConfig(fields=("no/such",), trials_per_bit=1, data_size=128)
        with pytest.raises(KeyError):
            run_suite(config, tmp_path)


class TestSuiteCellsAreRuns:
    """Every cell is a runner run directory, checked like any other run."""

    def test_cell_records_equal_run_campaign(self, small_config, tmp_path):
        result = run_suite(small_config, tmp_path, jobs=1)
        data = get_preset("hurricane/uf30").generate(
            seed=small_config.seed, size=small_config.data_size
        )
        expected = run_campaign(data, "posit32", small_config.campaign_config())
        assert_records_identical(result.records("hurricane/uf30", "posit32"), expected.records)

    def test_truncated_shard_quarantined_and_recomputed(self, small_config, tmp_path_factory):
        untouched = run_suite(small_config, tmp_path_factory.mktemp("clean"), jobs=1)
        out = tmp_path_factory.mktemp("torn")
        run_suite(small_config, out, jobs=1)
        cell = untouched.cell_dir("cesm/cloud", "posit32").name
        shard = RunManifest.shard_path(out / cell, 7)
        shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])

        rerun = run_suite(small_config, out, jobs=1)
        assert rerun.completed == [("cesm/cloud", "posit32")]
        assert len(rerun.skipped) == 3
        assert run_status(out / cell).quarantined_files
        assert_records_identical(
            rerun.records("cesm/cloud", "posit32"),
            untouched.records("cesm/cloud", "posit32"),
        )

    def test_changed_trial_count_refused(self, small_config, tmp_path):
        run_suite(small_config, tmp_path, jobs=1)
        more = SuiteConfig(
            fields=small_config.fields, targets=small_config.targets,
            data_size=small_config.data_size, trials_per_bit=7, seed=small_config.seed,
        )
        with pytest.raises(RunnerError, match="trials_per_bit: run has 3, caller has 7"):
            run_suite(more, tmp_path, jobs=1)

    def test_old_layout_refused(self, small_config, tmp_path, capsys):
        (tmp_path / "cesm__cloud--posit32.csv").write_text("bit,trial\n")
        (tmp_path / "manifest.json").write_text(json.dumps({"campaigns": {}}))
        with pytest.raises(RunnerError, match="old CSV-log layout"):
            run_suite(small_config, tmp_path, jobs=1)
        assert main(["suite", "--out", str(tmp_path), "--fields", "cesm/cloud"]) == 1
        assert "old CSV-log layout" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cesm__cloud--posit32.csv", "manifest.json",
        ]

    def test_cells_verify_clean_after_rerun(self, small_config, tmp_path, capsys):
        run_suite(small_config, tmp_path, jobs=1)
        result = run_suite(small_config, tmp_path, jobs=1)
        for cell in _cells(small_config, result):
            assert verify_run(cell).exit_code == 0
            assert run_status(cell).complete
            assert main(["campaign", "verify", str(cell)]) == 0
            assert main(["campaign", "status", str(cell)]) == 0
