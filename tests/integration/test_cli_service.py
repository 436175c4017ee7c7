"""End-to-end tests for the campaign service CLI verbs.

Covers the submit -> worker -> watch -> get lifecycle against an
isolated ``REPRO_HOME``, and locks the machine-readable status schema:
``campaign status --json`` and ``campaign get --json`` must emit the
same payload under the same schema id.
"""

import json

import pytest

from repro.cli import main
from repro.service import STATUS_SCHEMA


@pytest.fixture
def service_home(tmp_path, monkeypatch):
    home = tmp_path / "home"
    monkeypatch.setenv("REPRO_HOME", str(home))
    return home


def _submit(capsys) -> dict:
    assert main([
        "campaign", "submit", "cesm/cloud", "posit16",
        "--size", "512", "--trials", "2", "--bits", "4", "--json",
    ]) == 0
    return json.loads(capsys.readouterr().out)


class TestConfigCommands:
    def test_init_and_show(self, service_home, capsys):
        assert main(["config", "init"]) == 0
        out = capsys.readouterr().out
        assert str(service_home) in out
        assert (service_home / "config.json").is_file()

        assert main(["config", "show"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["home"] == str(service_home)
        assert payload["runs_dir"] == str(service_home / "runs")


class TestSubmitLifecycle:
    def test_submit_worker_get_watch(self, service_home, capsys):
        entry = _submit(capsys)
        assert entry["run_id"] == "posit16-0001"

        assert main(["campaign", "list"]) == 0
        listing = capsys.readouterr().out
        assert "posit16-0001" in listing
        assert "submitted" in listing

        assert main(["campaign", "worker", entry["run_id"],
                     "--worker-id", "cli-w1"]) == 0
        out = capsys.readouterr().out
        assert "4 shard(s) computed" in out
        assert "finalized the run" in out

        assert main(["campaign", "get", entry["run_id"]]) == 0
        assert "completed" in capsys.readouterr().out

        assert main(["campaign", "watch", entry["run_id"],
                     "--until-done", "--timeout", "5"]) == 0
        assert "run completed" in capsys.readouterr().out

        assert main(["campaign", "verify", entry["run_dir"]]) == 0

    def test_unknown_run_ref_exits_1(self, service_home, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "get", "nope-0001"])
        assert exc.value.code == 1
        assert "unknown run id" in capsys.readouterr().err

    def test_cancel_stops_workers(self, service_home, capsys):
        entry = _submit(capsys)
        assert main(["campaign", "cancel", entry["run_id"],
                     "--reason", "test"]) == 0
        assert main(["campaign", "worker", entry["run_id"]]) == 3
        out = capsys.readouterr().out
        assert "cancelled" in out


class TestSweepAndSubmitCells:
    """submit is a one-format x one-fault sweep: same ids, labels, rows."""

    def test_value_sweep_entries(self, service_home, capsys):
        assert main([
            "campaign", "sweep", "cesm/cloud", "--formats", "posit16,ieee16",
            "--faults", "single,adjacent(2)", "--size", "512", "--trials", "1",
            "--bits", "2", "--json",
        ]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [(e["run_id"], e["target"], e["label"]) for e in entries] == [
            ("posit16-0001", "posit16", "cesm/cloud [single]"),
            ("posit16-0002", "posit16", "cesm/cloud [adjacent(2)]"),
            ("ieee16-0003", "ieee16", "cesm/cloud [single]"),
            ("ieee16-0004", "ieee16", "cesm/cloud [adjacent(2)]"),
        ]
        assert {e["field"] for e in entries} == {"cesm/cloud"}

    def test_app_submit_and_sweep_entries(self, service_home, capsys):
        app = ["--app", "cg", "--grid", "6", "--inject-at", "2", "--trials", "1",
               "--bits", "2"]
        assert main(["campaign", "submit", "posit16", *app, "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert (entry["run_id"], entry["field"], entry["label"]) == (
            "cg-posit16-0001", "app/cg", "cg")
        assert main(["campaign", "sweep", "--formats", "ieee16", *app]) == 0
        out = capsys.readouterr().out
        assert "1 run(s) submitted" in out
        assert "cg-ieee16-0002" in out and "cg [single]" in out

    def test_failed_cell_names_earlier_runs(self, service_home, capsys):
        assert main([
            "campaign", "sweep", "cesm/cloud", "--formats", "posit16,nope99",
            "--size", "512", "--trials", "1", "--bits", "2",
        ]) == 1
        err = capsys.readouterr().err
        assert "nope99" in err
        assert "note: posit16-0001 was submitted before the failure" in err


class TestStatusSchemaLock:
    """`campaign status --json` and `campaign get --json` are one schema."""

    EXPECTED_KEYS = {
        "schema", "run_dir", "target", "fault_model", "app", "label",
        "status", "executor", "complete", "cancelled", "shards", "trials",
        "pending_bits", "missing_shard_files", "quarantined_files", "workers",
    }

    def test_get_and_status_emit_identical_payloads(self, service_home, capsys):
        entry = _submit(capsys)
        main(["campaign", "worker", entry["run_id"]])
        capsys.readouterr()

        assert main(["campaign", "get", entry["run_id"], "--json"]) == 0
        get_payload = json.loads(capsys.readouterr().out)

        assert main(["campaign", "status", entry["run_dir"], "--json"]) == 0
        status_payload = json.loads(capsys.readouterr().out)

        assert get_payload == status_payload
        assert get_payload["schema"] == STATUS_SCHEMA == "repro.run-status/1"
        assert set(get_payload) == self.EXPECTED_KEYS
        assert get_payload["shards"] == {"done": 4, "total": 4}
        assert get_payload["trials"] == {"done": 8, "total": 8}
        assert get_payload["complete"] is True

    def test_status_json_mid_run(self, service_home, capsys):
        entry = _submit(capsys)
        capsys.readouterr()
        assert main(["campaign", "status", entry["run_dir"], "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == STATUS_SCHEMA
        assert payload["complete"] is False
        assert payload["status"] == "submitted"
        assert payload["pending_bits"] == [0, 1, 2, 3]
