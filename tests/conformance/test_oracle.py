"""End-to-end oracle behavior: clean runs, perturbation detection, CLI."""

import numpy as np
import pytest

from repro.conformance import BUDGETS, bless, run_conformance
from repro.conformance.oracle import OracleContext


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """A blessed fixture directory for the narrow formats (fast)."""
    path = tmp_path_factory.mktemp("golden")
    bless(path, formats=["posit8", "posit16", "bfloat16"])
    return path


def _ctx(level="smoke", **overrides):
    defaults = dict(
        level=level, budget=BUDGETS[level], seed=7, golden_dir="unused", formats=None
    )
    defaults.update(overrides)
    return OracleContext(**defaults)


class TestCleanRun:
    def test_smoke_clean_on_narrow_roster(self, golden_dir):
        report = run_conformance(
            "smoke", ["posit8", "posit16", "bfloat16"], golden_dir=golden_dir
        )
        assert report.render().startswith("conformance: level=smoke")
        assert report.exit_code == 0, report.render()
        assert report.checks_run > 0
        assert report.units_checked > 0

    def test_missing_fixtures_warn_but_do_not_error(self, tmp_path):
        report = run_conformance("smoke", ["posit8"], golden_dir=tmp_path / "nowhere")
        assert report.errors == []
        assert report.warnings, "missing fixtures should surface as warnings"
        assert report.exit_code == 2

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="level"):
            run_conformance("exhaustive")


class TestPerturbationDetection:
    def test_too_fine_posit_rounding_is_caught(self, golden_dir, monkeypatch):
        """Rounding to one more bit keeps every lattice point but not the ties."""
        from repro.formats import posit
        from repro.posit import PositConfig

        true_round = posit.round_to_posit

        def one_bit_finer(values, config):
            return true_round(values, PositConfig(config.nbits + 1, config.es))

        monkeypatch.setattr(posit, "round_to_posit", one_bit_finer)
        report = run_conformance("smoke", ["posit8"], golden_dir=golden_dir)
        assert report.exit_code == 1
        assert any(
            f.check == "round-trip-agreement" and "its pattern" in f.message
            for f in report.errors
        ), report.render()

    def test_ties_away_rounding_is_caught_in_every_encoder(self, golden_dir, monkeypatch):
        """Posit, fixed-posit and binary(e,f) encoders all round through
        shift_round; rounding its ties away from zero must trip rne-ties
        for each family, which the real helper leaves clean."""
        import importlib

        from repro.bitops import core

        roster = ["posit16", "fixedposit(16,es=2,r=3)", "binary(6,9)"]

        def rne_ties():
            report = run_conformance("smoke", roster, golden_dir=golden_dir)
            return [result for result in report.results if result.check == "rne-ties"]

        clean = rne_ties()
        assert len(clean) == 3
        assert all(result.ok and result.checked > 0 for result in clean), clean

        def ties_away(tail, drop, high=0):
            kept = high | tail >> drop
            rem = tail & ((1 << drop) - 1)
            return kept + (rem << 1 >= 1 << drop)

        for name in ("repro.posit.encode", "repro.formats.fixedposit", "repro.ieee.bits"):
            module = importlib.import_module(name)
            assert module.shift_round is core.shift_round, name
            monkeypatch.setattr(module, "shift_round", ties_away)
        broken = rne_ties()
        assert [result.subject for result in broken if not result.ok] == [
            "posit16", "fixedposit(16,es=2,r=3)", "binary(6,9)"
        ], broken

    def test_lean_classify_off_at_one_long_run_is_caught(self, monkeypatch):
        """Runs of 29 bits fall outside the leading-byte strata; the
        run-length sample still reaches them."""
        from repro.conformance import differential
        from repro.formats import resolve
        from repro.posit.lean import run_bit_length

        true_classify = differential.lean_classify

        def off_at_run_29(bits, bit_index, config):
            fields = true_classify(bits, bit_index, config)
            return np.where(run_bit_length(bits, config) == 2, 0, fields)

        monkeypatch.setattr(differential, "lean_classify", off_at_run_29)
        result = differential.check_lean_agreement(_ctx(), resolve("posit32"))
        assert not result.skipped
        assert any("lean classify" in f.message for f in result.findings), result.findings

    def test_lean_decode_perturbation_is_caught(self, monkeypatch):
        from repro.conformance import differential
        from repro.formats import resolve

        true_decode = differential.lean_decode

        def skewed(bits, config):
            values = true_decode(bits, config)
            return np.where(values < -1.0, np.nextafter(values, 0.0), values)

        monkeypatch.setattr(differential, "lean_decode", skewed)
        result = differential.check_lean_agreement(_ctx(), resolve("posit16"))
        assert any("lean decode" in f.message for f in result.findings), result.findings
        assert differential.check_lean_agreement(_ctx(), resolve("ieee32")).skipped

    def test_perturbed_fast_metric_is_caught(self, golden_dir, monkeypatch):
        """Nudging a metric constant must fail the differential check."""
        from repro.metrics import fast

        true_fast = fast.single_fault_metrics

        def skewed(baseline, old_value, new_value):
            metrics = true_fast(baseline, old_value, new_value)
            return type(metrics)(
                **{
                    **metrics.__dict__,
                    "mean_squared_error": metrics.mean_squared_error * (1 + 1e-6),
                }
            )

        monkeypatch.setattr(fast, "single_fault_metrics", skewed)
        report = run_conformance("smoke", ["posit8"], golden_dir=golden_dir)
        assert report.exit_code == 1
        assert any(
            f.check == "metrics-fast-vs-full" and "mse" in f.message
            for f in report.errors
        ), report.render()

    def test_perturbed_reference_metric_is_caught(self, golden_dir, monkeypatch):
        """The metamorphic check guards the full reduction side too."""
        from repro.metrics import pointwise

        true_compare = pointwise.compare_arrays

        def skewed(original, faulty):
            metrics = true_compare(original, faulty)
            return type(metrics)(
                **{
                    **metrics.__dict__,
                    "mean_absolute_error": metrics.mean_absolute_error + 1e-6,
                }
            )

        monkeypatch.setattr(pointwise, "compare_arrays", skewed)
        report = run_conformance("smoke", ["posit8"], golden_dir=golden_dir)
        assert report.exit_code == 1
        assert any(f.subject == "metrics" for f in report.results if not f.ok)

    def test_crashing_check_becomes_finding_not_exception(self, golden_dir, monkeypatch):
        from repro.conformance import differential

        def boom(fmt):
            raise RuntimeError("synthetic check crash")

        monkeypatch.setattr(differential, "reference_for", boom)
        report = run_conformance("smoke", ["posit8"], golden_dir=golden_dir)
        assert report.exit_code == 1
        assert any("synthetic check crash" in f.message for f in report.errors)


class TestContextRoster:
    def test_explicit_roster_restricts_golden_fixtures(self, golden_dir):
        report = run_conformance("smoke", ["posit16"], golden_dir=golden_dir)
        subjects = {r.subject for r in report.results}
        assert "posit16" in subjects
        assert not any("posit8" == s for s in subjects)

    def test_budgets_escalate_with_level(self):
        assert BUDGETS["full"].patterns > BUDGETS["smoke"].patterns
        assert BUDGETS["full"].exhaustive_max_bits >= BUDGETS["smoke"].exhaustive_max_bits


class TestTelemetryIntegration:
    def test_counters_recorded_when_enabled(self, golden_dir):
        from repro.telemetry import Telemetry, telemetry_scope

        with telemetry_scope(Telemetry()) as collector:
            run_conformance("smoke", ["posit8"], golden_dir=golden_dir)
            snapshot = collector.snapshot()
        assert snapshot.counters.get("conformance.checks_run", 0) > 0
        assert snapshot.counters.get("conformance.units_checked", 0) > 0
        assert any(name.startswith("conformance.") for name in snapshot.spans)


class TestCli:
    def test_cli_run_smoke_exits_zero(self, golden_dir, capsys):
        from repro.cli import main

        code = main([
            "conformance", "run", "--level", "smoke",
            "--format", "posit8", "--golden-dir", str(golden_dir),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "result: clean" in out

    def test_cli_run_writes_report_file(self, golden_dir, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "report.txt"
        code = main([
            "conformance", "run", "--level", "smoke",
            "--format", "posit8", "--golden-dir", str(golden_dir),
            "--out", str(out_file),
        ])
        assert code == 0
        assert "result: clean" in out_file.read_text()

    def test_cli_bless_writes_fixtures(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "conformance", "bless", "--format", "posit8",
            "--golden-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "codec-posit8.json").is_file()
        assert "blessed" in capsys.readouterr().out


class TestDeterminism:
    def test_same_seed_same_report(self, golden_dir):
        first = run_conformance("smoke", ["posit8"], golden_dir=golden_dir, seed=11)
        second = run_conformance("smoke", ["posit8"], golden_dir=golden_dir, seed=11)
        assert first.render() == second.render()
        assert first.units_checked == second.units_checked

    def test_oracle_context_is_frozen(self):
        ctx = _ctx()
        with pytest.raises(AttributeError):
            ctx.level = "full"

    def test_sampling_never_touches_global_numpy_state(self, golden_dir):
        np.random.seed(4)
        before = np.random.get_state()[1].copy()
        run_conformance("smoke", ["posit8"], golden_dir=golden_dir)
        assert np.array_equal(np.random.get_state()[1], before)
