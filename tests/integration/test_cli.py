"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListCommands:
    def test_targets(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "posit32" in out
        assert "ieee32" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "Figure 10" in out

    def test_datasets(self, capsys):
        assert main(["datasets", "--size", "2000"]) == 0
        out = capsys.readouterr().out
        assert "nyx/temperature" in out


    def test_targets_with_extra_specs(self, capsys):
        assert main(["targets", "--spec", "posit16es1", "--spec", "binary(6,9)"]) == 0
        out = capsys.readouterr().out
        assert "posit16es1" in out
        assert "binary(6,9)" in out


class TestInspect:
    def test_value(self, capsys):
        assert main(["inspect", "186.25"]) == 0
        out = capsys.readouterr().out
        assert "0x433a4000" in out
        assert "0x6dd20000" in out
        assert "186.25" in out

    def test_spec_targets(self, capsys):
        code = main([
            "inspect", "186.25",
            "--target", "posit16es1", "--target", "fixedposit(16,es=2,r=3)",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "posit16es1" in out
        assert "fixedposit(16,es=2,r=3)" in out
        assert "0x433a4000" not in out  # defaults replaced, not appended


class TestExperiment:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "worked", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiment", "fig99", "--quick"])


class TestCampaign:
    def test_prints_aggregate(self, capsys):
        code = main([
            "campaign", "run", "cesm/cloud", "posit32",
            "--size", "4096", "--trials", "4", "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 128 trials" in out
        assert "conversion" in out

    def test_legacy_form_rejected(self, capsys):
        # The pre-subcommand `campaign FIELD TARGET` shim is removed:
        # argparse rejects the unknown subcommand with its usage error.
        with pytest.raises(SystemExit) as exc:
            main([
                "campaign", "cesm/cloud", "posit32",
                "--size", "2048", "--trials", "2", "--jobs", "1",
            ])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trials.csv"
        code = main([
            "campaign", "run", "cesm/cloud", "ieee32",
            "--size", "4096", "--trials", "3", "--jobs", "1",
            "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        from repro.inject.results import TrialRecords

        records = TrialRecords.read_csv(out_path)
        assert len(records) == 3 * 32


class TestCampaignRunCommand:
    def test_run_with_jobs(self, capsys):
        code = main([
            "campaign", "run", "cesm/cloud", "posit32",
            "--size", "2048", "--trials", "2", "--jobs", "2",
        ])
        assert code == 0
        assert "campaign: 64 trials" in capsys.readouterr().out

    def test_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run", "cesm/cloud", "posit32", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_rejects_non_integer_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "cesm/cloud", "posit32", "--jobs", "two"])
        assert "must be an integer" in capsys.readouterr().err

    def test_app_run_and_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "cg"
        assert main([
            "campaign", "run", "--app", "cg", "posit16", "--grid", "6",
            "--inject-at", "2", "--trials", "1", "--jobs", "1", "--run-dir", str(run_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "app campaign: 16 fault trials on cg as posit16" in out
        assert "outcomes: " in out
        assert main(["campaign", "resume", str(run_dir), "--jobs", "1"]) == 0
        assert "(16 shard(s) restored)" in capsys.readouterr().out

    def test_bad_app_schedule_exits_1(self, capsys):
        assert main(["campaign", "run", "--app", "cg", "posit16", "--inject-at", "0"]) == 1
        assert "1-based" in capsys.readouterr().err

    def test_workers_alias_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run", "cesm/cloud", "posit32", "--workers", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_suite_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "--jobs", "-2"])
        assert "jobs must be >= 1" in capsys.readouterr().err


class TestCampaignRunDir:
    def test_run_status_resume_cycle(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = [
            "cesm/cloud", "posit32",
            "--size", "1024", "--trials", "2", "--jobs", "1",
            "--run-dir", str(run_dir),
        ]
        assert main(["campaign", "run", *base]) == 0
        out = capsys.readouterr().out
        assert "campaign: 64 trials" in out
        assert str(run_dir) in out

        assert main(["campaign", "status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "32/32 completed" in out

        assert main(["campaign", "resume", str(run_dir), "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 64 trials" in out
        assert "32 shard(s) restored" in out

    def test_status_of_interrupted_run(self, tmp_path, capsys):
        from repro.datasets.registry import get as get_preset
        from repro.inject.campaign import CampaignConfig, run_campaign
        from repro.runner import RunnerHooks

        class Kill(RunnerHooks):
            def on_shard_finish(self, event):
                if event.kind == "shard_finish" and event.shards_done >= 3:
                    raise KeyboardInterrupt

        data = get_preset("cesm/cloud").generate(seed=2023, size=1024)
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                data, "posit32", CampaignConfig(trials_per_bit=2, seed=2023),
                run_dir=run_dir, hooks=Kill(),
                dataset={"kind": "preset", "field": "cesm/cloud",
                         "size": 1024, "seed": 2023},
            )

        assert main(["campaign", "status", str(run_dir)]) == 2
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert "pending" in out

        # Resume regenerates the dataset from the manifest's provenance.
        assert main(["campaign", "resume", str(run_dir), "--jobs", "1"]) == 0
        assert main(["campaign", "status", str(run_dir)]) == 0

    def test_status_missing_dir(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err


class TestPredict:
    def test_table_rendered(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["predict", "186.25"]) == 0
        out = capsys.readouterr().out
        assert "SIGN_FLIP" in out
        assert "REGIME_EXPANSION" in out
        assert "EXPONENT_CHANGE" in out

    def test_spec_targets(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["predict", "1.5", "--target", "posit8", "--target", "ieee16"]) == 0
        out = capsys.readouterr().out
        assert "posit8" in out
        assert "ieee16" in out
        assert "SIGN_FLIP" in out


class TestSuiteCommand:
    def test_runs_and_resumes(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        args = [
            "suite", "--out", str(tmp_path), "--fields", "cesm/cloud",
            "--size", "1024", "--trials", "2", "--jobs", "1",
        ]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "[done] cesm/cloud x posit32" in out
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "[skip]" in out


class TestReportCommand:
    def test_writes_report(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        import repro.reporting.report as report_module

        # Patch experiment list to keep the CLI test fast.
        original = report_module.generate_report

        def tiny(directory, params=None, ids=None):
            return original(directory, params, ids=["worked"])

        report_module.generate_report = tiny
        try:
            assert cli_main(["report", "--out", str(tmp_path), "--quick"]) == 0
        finally:
            report_module.generate_report = original
        assert (tmp_path / "report.md").exists()
