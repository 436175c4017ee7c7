"""App-campaign core: config identity, cell mapping, outcome taxonomy.

Covers the layer's pure contracts — schedule validation, cell id
round-trips, scalar/vector classification agreement (hypothesis-driven),
the zero-mask ≡ no-fault identity — and the seeding discipline:
``run_app_shard`` replayed in a fresh process must be byte-identical,
because work-stealing workers rely on it.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.campaign import (
    OUTCOMES,
    AppCampaignConfig,
    AppCampaignRunner,
    AppTrialRecords,
    cell_seeds,
    classify_outcome,
    classify_outcomes,
    clean_solve,
    run_app_campaign,
    run_app_shard,
    run_app_trial,
)
from repro.apps import campaign as app_campaign
from repro.formats import resolve
from repro.inject.faults import FaultMasks


class TestConfig:
    def test_solver_defaults_resolve_per_app(self):
        cg = AppCampaignConfig(app="cg")
        assert (cg.max_iterations, cg.tolerance) == (500, 1e-8)
        jacobi = AppCampaignConfig(app="jacobi")
        assert (jacobi.max_iterations, jacobi.tolerance) == (2000, 1e-6)

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="app"):
            AppCampaignConfig(app="gmres")

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AppCampaignConfig(app="cg", iterations=())
        with pytest.raises(ValueError):
            AppCampaignConfig(app="cg", iterations=(0,))
        with pytest.raises(ValueError):
            AppCampaignConfig(app="cg", iterations=(5, 5))
        with pytest.raises(ValueError):
            AppCampaignConfig(app="cg", iterations=(7, 3))

    def test_schedule_must_fit_the_solver_budget(self):
        with pytest.raises(ValueError, match="max_iterations"):
            AppCampaignConfig(app="cg", iterations=(10,), max_iterations=5)

    def test_fault_spec_canonicalized(self):
        config = AppCampaignConfig(app="cg", fault="burst(3, 0.5)")
        assert config.fault == "burst(3,0.5)"

    def test_manifest_round_trip(self):
        config = AppCampaignConfig(
            app="jacobi", grid=10, iterations=(2, 9), trials_per_cell=2,
            seed=7, fault="adjacent(2)", sdc_threshold=1e-2,
        )
        payload = config.manifest_payload()
        assert payload["name"] == "jacobi"
        assert payload["iterations"] == [2, 9]
        assert payload["sdc_threshold"] == 1e-2


class TestCellMapping:
    def test_cells_invert_to_schedule_and_bits(self):
        config = AppCampaignConfig(app="cg", iterations=(2, 7), bits=(0, 3, 15))
        target = resolve("posit16")
        cells = config.cells(target)
        assert len(cells) == 6
        located = {config.cell_location(cell, target.nbits) for cell in cells}
        assert located == {(i, b) for i in (2, 7) for b in (0, 3, 15)}

    def test_cell_beyond_schedule_rejected(self):
        config = AppCampaignConfig(app="cg", iterations=(2,))
        with pytest.raises(ValueError, match="schedule"):
            config.cell_location(64, 16)

    def test_cell_seeds_are_pure_functions_of_identity(self):
        config = AppCampaignConfig(app="cg", iterations=(2, 7), seed=5)
        first = cell_seeds(config, "posit16")
        second = cell_seeds(config, "posit16")
        assert first.keys() == second.keys()
        for cell in first:
            assert (
                first[cell].generate_state(4).tolist()
                == second[cell].generate_state(4).tolist()
            )


class TestClassifyOutcome:
    def test_priority_order(self):
        assert classify_outcome(False, False, 0, 0.0, 1e-3) == "diverged"
        assert classify_outcome(True, True, 0, 0.0, 1e-3) == "diverged"
        assert classify_outcome(True, False, 3, 1.0, 1e-3) == "sdc"
        assert classify_outcome(True, False, 0, float("nan"), 1e-3) == "sdc"
        assert classify_outcome(True, False, 3, 0.0, 1e-3) == "delayed"
        assert classify_outcome(True, False, 0, 1e-6, 1e-3) == "converged"

    @settings(max_examples=200, deadline=None)
    @given(
        converged=st.booleans(),
        diverged=st.booleans(),
        overhead=st.integers(min_value=-5, max_value=500),
        error=st.one_of(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.just(float("nan")),
            st.just(float("inf")),
        ),
        threshold=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    def test_vectorized_matches_scalar(
        self, converged, diverged, overhead, error, threshold
    ):
        scalar = classify_outcome(converged, diverged, overhead, error, threshold)
        vector = classify_outcomes(
            np.array([converged]),
            np.array([diverged]),
            np.array([overhead]),
            np.array([error]),
            threshold,
        )
        assert scalar in OUTCOMES
        assert vector[0] == scalar

    @settings(max_examples=200, deadline=None)
    @given(
        overhead=st.integers(min_value=0, max_value=50),
        error=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        lo=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
        hi=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    def test_sdc_set_shrinks_as_threshold_grows(self, overhead, error, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        at_hi = classify_outcome(True, False, overhead, error, hi)
        at_lo = classify_outcome(True, False, overhead, error, lo)
        if at_hi == "sdc":
            assert at_lo == "sdc"

    @settings(max_examples=50, deadline=None)
    @given(threshold=st.floats(min_value=1e-12, max_value=1e3, allow_nan=False))
    def test_no_fault_always_converged(self, threshold):
        # A clean replay: converged, no overhead, zero error vs itself.
        assert classify_outcome(True, False, 0, 0.0, threshold) == "converged"


class TestZeroMaskIsNoFault:
    @pytest.mark.parametrize("app", ["cg", "jacobi"])
    def test_zero_mask_at_final_iteration_matches_clean(self, app):
        config = AppCampaignConfig(app=app, grid=8, iterations=(4,))
        target = resolve("posit16")
        clean = clean_solve(config, target)
        zero = FaultMasks(xor=0, set=0, clear=0)
        faulty = run_app_trial(config, target, 4, 10, zero, clean)
        assert faulty.faulty_iterations == clean.iterations
        assert faulty.converged == clean.converged
        assert faulty.diverged == clean.diverged
        assert faulty.solution_error == 0.0
        outcome = classify_outcome(
            faulty.converged, faulty.diverged,
            faulty.iteration_overhead, faulty.solution_error, config.sdc_threshold,
        )
        no_fault = classify_outcome(
            clean.converged, clean.diverged, 0, 0.0, config.sdc_threshold
        )
        assert outcome == no_fault


class TestCampaign:
    def test_sweep_shape(self):
        config = AppCampaignConfig(
            app="jacobi", grid=8, iterations=(4,), trials_per_cell=1, seed=1,
        )
        result = run_app_campaign(config, "posit16")
        assert result.trial_count == 16
        assert sorted(int(b) for b in np.unique(result.records.bit)) == list(range(16))
        assert set(result.records.outcome) <= set(OUTCOMES)

    def test_deterministic(self):
        config = AppCampaignConfig(
            app="jacobi", grid=8, iterations=(4,), trials_per_cell=1, seed=9,
            max_iterations=500,
        )
        a = run_app_campaign(config, "posit16")
        b = run_app_campaign(config, "posit16")
        assert a.records.to_csv_string() == b.records.to_csv_string()

    def test_each_run_solves_its_reference_once(self, monkeypatch, tmp_path):
        # Every cell compares against the runner's one clean solve; a
        # second run of the same campaign solves its own, not a memo's.
        # Submitting computes no cell, so it solves nothing.
        solve = app_campaign._solve
        clean_solves = []

        def counting(config, target, fault_hook=None):
            if fault_hook is None:
                clean_solves.append(target.name)
            return solve(config, target, fault_hook)

        monkeypatch.setattr(app_campaign, "_solve", counting)
        config = AppCampaignConfig(
            app="cg", grid=6, iterations=(2, 4), trials_per_cell=2, bits=(0, 9, 14),
            seed=5,
        )
        AppCampaignRunner(config, "posit16", run_dir=tmp_path / "submitted").submit()
        assert clean_solves == []
        for run in (1, 2):
            result = run_app_campaign(config, "posit16")
            assert result.trial_count == 12
            assert clean_solves == ["posit16"] * run


class TestShardRecords:
    def test_csv_round_trip_exact(self):
        config = AppCampaignConfig(
            app="cg", grid=8, iterations=(3,), trials_per_cell=2, seed=11,
            fault="adjacent(2)",
        )
        target = resolve("posit16")
        cell = config.cells(target)[5]
        records = run_app_shard(
            config, target, cell, config.trials_per_cell,
            cell_seeds(config, target)[cell], clean_solve(config, target),
        )
        clone = AppTrialRecords.from_csv_string(records.to_csv_string())
        assert clone.to_csv_string() == records.to_csv_string()
        assert set(records.outcome) <= set(OUTCOMES)
        assert set(records.fault_spec) == {"adjacent(2)"}

    def test_default_fault_has_no_spec_column(self):
        config = AppCampaignConfig(
            app="cg", grid=8, iterations=(3,), trials_per_cell=1, seed=11
        )
        target = resolve("posit16")
        cell = config.cells(target)[0]
        records = run_app_shard(
            config, target, cell, 1, cell_seeds(config, target)[cell],
            clean_solve(config, target),
        )
        assert records.fault_spec is None
        assert "fault_spec" not in records.to_csv_string().splitlines()[1]


class TestCrossProcessReplay:
    """Satellite: shard RNG must derive purely from (seed, iteration, bit)."""

    def test_shard_replay_is_byte_identical_in_a_fresh_process(self, tmp_path):
        config = AppCampaignConfig(
            app="cg", grid=8, iterations=(3,), trials_per_cell=2, seed=11,
            fault="adjacent(2)",
        )
        target = resolve("posit16")
        cell = config.cells(target)[7]
        records = run_app_shard(
            config, target, cell, config.trials_per_cell,
            cell_seeds(config, target)[cell], clean_solve(config, target),
        )
        here = tmp_path / "in_process.csv"
        records.write_csv(here)

        there = tmp_path / "fresh_process.csv"
        script = textwrap.dedent(f"""
            from repro.apps.campaign import (
                AppCampaignConfig, cell_seeds, clean_solve, run_app_shard,
            )
            from repro.formats import resolve

            config = AppCampaignConfig(
                app="cg", grid=8, iterations=(3,), trials_per_cell=2,
                seed=11, fault="adjacent(2)",
            )
            target = resolve("posit16")
            records = run_app_shard(
                config, target, {cell}, 2, cell_seeds(config, target)[{cell}],
                clean_solve(config, target),
            )
            records.write_csv({str(there)!r})
        """)
        subprocess.run([sys.executable, "-c", script], check=True, timeout=300)
        assert there.read_bytes() == here.read_bytes()
