"""Tests for the run registry and the canonical status payload."""

import json

import pytest

from repro.datasets.registry import get as get_preset
from repro.inject.campaign import CampaignConfig
from repro.runner import CampaignRunner, RunManifest, run_worker
from repro.service import (
    STATUS_SCHEMA,
    RunRegistry,
    ServiceError,
    run_status_payload,
)


@pytest.fixture
def registry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HOME", str(tmp_path / "home"))
    return RunRegistry()


def submit_preset(registry, field, target, *, trials_per_bit, bits=None, seed=12345,
                  size=10_000, data_seed=777, project="default", trace=False):
    """Submit a value campaign over a dataset preset through ``registry.submit``."""

    def build(run_dir):
        data = get_preset(field).generate(seed=data_seed, size=size)
        config = CampaignConfig(trials_per_bit=trials_per_bit, bits=bits, seed=seed)
        dataset = {"kind": "preset", "field": field, "seed": data_seed, "size": size}
        return CampaignRunner(data, target, config, label=field, run_dir=run_dir,
                              dataset=dataset, trace=True if trace else None)

    return registry.submit(build, name=target, field=field, project=project)


def _submit(registry, **overrides):
    kwargs = dict(trials_per_bit=2, bits=(0, 1, 2), size=512, seed=7)
    kwargs.update(overrides)
    return submit_preset(registry, "cesm/cloud", "posit16", **kwargs)


class TestSubmitRun:
    def test_submit_registers_and_writes_manifest(self, registry):
        entry = _submit(registry)
        assert entry.run_id == "posit16-0001"
        assert entry.project == "default"
        assert entry.target == "posit16"
        manifest = RunManifest.load(entry.run_dir)
        assert manifest.status == "submitted"
        assert manifest.executor == "work-stealing"
        assert manifest.dataset == {"kind": "preset", "field": "cesm/cloud",
                                    "seed": 777, "size": 512}

    def test_sequence_increments_across_targets(self, registry):
        assert _submit(registry).run_id == "posit16-0001"
        second = submit_preset(registry, "cesm/cloud", "ieee32",
                               trials_per_bit=2, bits=(0,), size=512)
        assert second.run_id == "ieee32-0002"

    def test_unknown_field_surfaces(self, registry):
        with pytest.raises(KeyError):
            submit_preset(registry, "no/such-field", "posit16", trials_per_bit=2)

    def test_slugs_keep_paths_safe(self, registry):
        entry = _submit(registry, project="team/alpha beta")
        assert "/" not in entry.run_id
        assert "team-alpha-beta" in entry.run_dir

    def test_app_runner_keeps_app_run_ids(self, registry):
        from repro.apps.campaign import AppCampaignConfig, AppCampaignRunner

        config = AppCampaignConfig(app="cg", grid=6, iterations=(2,),
                                   trials_per_cell=1, bits=(0,))
        entry = registry.submit(
            lambda run_dir: AppCampaignRunner(config, "posit16", run_dir=run_dir),
            name="cg-posit16", field="app/cg",
        )
        assert (entry.run_id, entry.field, entry.label) == ("cg-posit16-0001", "app/cg", "cg")
        assert RunManifest.load(entry.run_dir).app["name"] == "cg"

    def test_runner_without_dataset_source_refused(self, registry):
        import numpy as np

        def build(run_dir):
            return CampaignRunner(np.linspace(1.0, 2.0, 64), "posit16",
                                  CampaignConfig(trials_per_bit=1), run_dir=run_dir)

        with pytest.raises(ServiceError, match="regenerable dataset"):
            registry.submit(build, name="posit16", field="inline")
        assert registry.list_runs() == []
        assert not (registry.runs_dir / "default" / "posit16-0001").exists()


class TestListAndGet:
    def test_list_runs_sorted_and_filtered(self, registry):
        _submit(registry)
        _submit(registry, project="other")
        everything = registry.list_runs()
        assert [entry.run_id for entry in everything] == [
            "posit16-0001", "posit16-0002",
        ]
        assert [e.run_id for e in registry.list_runs("other")] == ["posit16-0002"]
        assert registry.list_runs("nope") == []

    def test_get_round_trips(self, registry):
        entry = _submit(registry)
        assert registry.get(entry.run_id) == entry

    def test_get_unknown_lists_known(self, registry):
        _submit(registry)
        with pytest.raises(ServiceError, match="posit16-0001"):
            registry.get("posit16-9999")


class TestResolveRunDir:
    def test_resolves_registry_id(self, registry):
        entry = _submit(registry)
        assert str(registry.resolve_run_dir(entry.run_id)) == entry.run_dir

    def test_resolves_plain_path(self, registry):
        entry = _submit(registry)
        from pathlib import Path

        assert registry.resolve_run_dir(Path(entry.run_dir)) == Path(entry.run_dir)

    def test_dir_without_manifest_is_explicit(self, registry, tmp_path):
        empty = tmp_path / "not-a-run"
        empty.mkdir()
        with pytest.raises(ServiceError, match="no campaign manifest"):
            registry.resolve_run_dir(empty)

    def test_unknown_id_raises(self, registry):
        with pytest.raises(ServiceError, match="unknown run id"):
            registry.resolve_run_dir("nope-0001")


class TestCancel:
    def test_cancel_drops_sentinel(self, registry):
        entry = _submit(registry)
        run_dir = registry.cancel(entry.run_id, reason="test says stop")
        payload = json.loads((run_dir / "CANCELLED").read_text())
        assert payload["reason"] == "test says stop"
        assert run_status_payload(run_dir)["cancelled"] is True


class TestStatusPayload:
    EXPECTED_KEYS = {
        "schema", "run_dir", "target", "fault_model", "app", "label",
        "status", "executor", "complete", "cancelled", "shards", "trials",
        "pending_bits", "missing_shard_files", "quarantined_files", "workers",
    }

    def test_submitted_payload(self, registry):
        entry = _submit(registry)
        payload = run_status_payload(entry.run_dir)
        assert payload["schema"] == STATUS_SCHEMA
        assert set(payload) == self.EXPECTED_KEYS
        assert payload["fault_model"] == "single"
        assert payload["status"] == "submitted"
        assert payload["executor"] == "work-stealing"
        assert payload["complete"] is False
        assert payload["shards"] == {"done": 0, "total": 3}
        assert payload["trials"] == {"done": 0, "total": 6}
        assert payload["pending_bits"] == [0, 1, 2]

    def test_completed_payload(self, registry):
        entry = _submit(registry)
        run_worker(entry.run_dir, worker_id="w", poll_interval=0.02)
        payload = run_status_payload(entry.run_dir)
        assert payload["complete"] is True
        assert payload["status"] == "completed"
        assert payload["shards"] == {"done": 3, "total": 3}
        assert payload["trials"] == {"done": 6, "total": 6}
        assert payload["pending_bits"] == []
        assert payload["workers"] == []

    def test_payload_is_json_serializable(self, registry):
        entry = _submit(registry)
        json.dumps(run_status_payload(entry.run_dir))
