"""App-campaign analysis readers (analysis.appsweep)."""

import numpy as np

from repro.analysis.appsweep import load_app_records
from repro.apps.campaign import AppCampaignConfig, AppCampaignRunner
from repro.runner import run_worker


class TestLoadAppRecords:
    def test_reads_cells_a_worker_finished_before_any_fold(self, tmp_path):
        # A worker that stops after two claims leaves done records but
        # no folded manifest; the reader must still see both cells.
        config = AppCampaignConfig(
            app="cg", grid=8, iterations=(2, 5), trials_per_cell=2,
            bits=(0, 7, 15), seed=2023,
        )
        run_dir = tmp_path / "run"
        AppCampaignRunner(config, "posit16", run_dir=run_dir).submit()
        run_worker(run_dir, max_claims=2)
        records = load_app_records(run_dir)
        assert len(records) == 4
        assert len(np.unique(records.cell)) == 2
