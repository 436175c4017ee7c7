"""Tests for work-stealing workers cooperating on a submitted run.

The scenarios the executor refactor promises: two independent worker
processes share one run directory without computing any shard twice,
their shards are bit-identical to a serial run, and SIGKILLing a worker
mid-run costs a lease steal, not the campaign.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.datasets.registry import get as get_preset
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.runner import (
    RunManifest,
    RunnerError,
    read_event_log,
    request_cancel,
    run_worker,
    verify_run,
)
from repro.runner.leases import read_done_records, try_claim
from repro.runner.manifest import RUN_COMPLETED, RUN_RUNNING, load_folded
from repro.runner.runner import CampaignRunner
from repro.runner.worker import ShardWorker, fold_run

FIELD = "cesm/cloud"
SIZE = 1024
DATA_SEED = 2023


def _dataset():
    return get_preset(FIELD).generate(seed=DATA_SEED, size=SIZE)


def _provenance():
    return {"kind": "preset", "field": FIELD, "size": SIZE, "seed": DATA_SEED}


def _submit(run_dir, *, trials=3, bits=tuple(range(8)), seed=42, size=SIZE):
    data = get_preset(FIELD).generate(seed=DATA_SEED, size=size)
    runner = CampaignRunner(
        data, "posit16",
        CampaignConfig(trials_per_bit=trials, bits=bits, seed=seed),
        run_dir=run_dir,
        dataset={"kind": "preset", "field": FIELD, "size": size,
                 "seed": DATA_SEED},
    )
    return runner.submit(), data


def _spawn_worker(run_dir, **kwargs):
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=run_worker, args=(run_dir,), kwargs=kwargs, daemon=True
    )
    process.start()
    return process


def _events(run_dir):
    return read_event_log(RunManifest.event_log_path(run_dir))


class TestSubmit:
    def test_submit_writes_submitted_manifest(self, tmp_path):
        manifest, _ = _submit(tmp_path / "run")
        assert manifest.status == "submitted"
        assert manifest.executor == "work-stealing"
        loaded = RunManifest.load(tmp_path / "run")
        assert loaded.status == "submitted"
        assert not loaded.completed_bits()
        kinds = [e["kind"] for e in _events(tmp_path / "run")]
        assert kinds == ["run_submitted"]

    def test_submit_requires_run_dir(self):
        runner = CampaignRunner(
            _dataset(), "posit16", CampaignConfig(trials_per_bit=2, bits=(0,))
        )
        with pytest.raises(RunnerError, match="run_dir"):
            runner.submit()

    def test_submit_refuses_existing_campaign(self, tmp_path):
        _submit(tmp_path / "run")
        with pytest.raises(RunnerError, match="already holds a campaign"):
            _submit(tmp_path / "run")


class TestSingleWorker:
    def test_one_worker_completes_and_finalizes(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 3, 15))
        result = run_worker(run_dir, worker_id="solo", poll_interval=0.02)
        assert result.status == "completed"
        assert result.claims == 3
        assert result.finalized is True
        manifest = RunManifest.load(run_dir)
        assert manifest.status == RUN_COMPLETED
        assert {s.worker for s in manifest.shards.values()} == {"solo"}
        assert verify_run(run_dir).ok
        kinds = [e["kind"] for e in _events(run_dir)]
        assert kinds[0] == "run_submitted"
        assert "run_finish" in kinds
        assert kinds[-1] == "worker_exit"

    def test_worker_on_finished_run_is_a_noop(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1))
        run_worker(run_dir, worker_id="first", poll_interval=0.02)
        again = run_worker(run_dir, worker_id="second", poll_interval=0.02)
        assert again.claims == 0
        assert again.status == "completed"
        assert again.finalized is False  # the marker is one-shot

    def test_worker_refuses_foreign_executor_mid_run(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1))
        manifest = RunManifest.load(run_dir)
        manifest.status = RUN_RUNNING
        manifest.executor = "pool"
        manifest.write(run_dir)
        with pytest.raises(RunnerError, match="cannot join"):
            ShardWorker(run_dir)._load()

    def test_cancel_stops_the_worker(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1, 2))
        request_cancel(run_dir, reason="test")
        result = run_worker(run_dir, worker_id="w", poll_interval=0.02)
        assert result.status == "cancelled"
        assert result.claims == 0

    def test_idle_timeout_when_all_leased_elsewhere(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1))
        assert try_claim(run_dir, 0, "other") is not None
        assert try_claim(run_dir, 1, "other") is not None
        result = run_worker(run_dir, worker_id="w", poll_interval=0.02,
                            max_idle_seconds=0.3, lease_timeout=60.0)
        assert result.status == "idle"
        assert result.claims == 0


class TestRetryExhaustion:
    def test_exhausted_shard_is_left_for_a_healthier_worker(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1, 2, 3))
        plan = FaultPlan([FaultSpec("worker-raise", bits=(2,), max_attempt=9)])
        with pytest.raises(RunnerError, match=r"bit\(s\) \[2\]"):
            run_worker(run_dir, worker_id="sick", poll_interval=0.02,
                       chaos=plan, max_retries=1)
        assert sorted(read_done_records(run_dir)) == [0, 1, 3]
        errors = [e for e in _events(run_dir) if e["kind"] == "shard_error"]
        assert [(e["bit"], e["attempt"]) for e in errors] == [(2, 0), (2, 1)]

        healthy = run_worker(run_dir, worker_id="healthy", poll_interval=0.02)
        assert healthy.claims == 1
        assert healthy.finalized is True
        assert not verify_run(run_dir).errors


class TestTwoWorkersCooperate:
    def test_split_run_is_bit_identical_to_serial(self, tmp_path):
        bits = tuple(range(8))
        run_dir = tmp_path / "shared"
        _submit(run_dir, bits=bits)

        # Cap each worker at half the shards so both identities must
        # appear in the claim log regardless of scheduling luck.
        workers = [
            _spawn_worker(run_dir, worker_id=f"w{i}", poll_interval=0.02,
                          max_claims=len(bits) // 2, finalize=False)
            for i in (1, 2)
        ]
        for process in workers:
            process.join(timeout=120)
            assert process.exitcode == 0

        # A capped worker exits idle without finalizing; a final no-op
        # worker folds the done records and emits run_finish.
        finisher = run_worker(run_dir, worker_id="finisher", poll_interval=0.02)
        assert finisher.claims == 0
        assert finisher.finalized is True
        manifest = RunManifest.load(run_dir)
        assert manifest.status == RUN_COMPLETED

        events = _events(run_dir)
        claimed = [e for e in events if e["kind"] == "shard_claimed"]
        claimed_bits = [e["bit"] for e in claimed]
        assert sorted(claimed_bits) == sorted(bits)  # no shard claimed twice
        identities = {e["detail"]["worker"] for e in claimed}
        assert identities == {"w1", "w2"}
        by_worker = {s.worker for s in manifest.shards.values()}
        assert by_worker == {"w1", "w2"}

        assert verify_run(run_dir).ok

        # Bit-identical to a serial run of the same campaign.
        serial_dir = tmp_path / "serial"
        run_campaign(
            _dataset(), "posit16",
            CampaignConfig(trials_per_bit=3, bits=bits, seed=42),
            run_dir=serial_dir, executor="serial", dataset=_provenance(),
        )
        for bit in bits:
            assert (RunManifest.shard_path(run_dir, bit).read_bytes()
                    == RunManifest.shard_path(serial_dir, bit).read_bytes()), (
                f"shard bit={bit} diverged from serial"
            )


class TestLeaseExpirySteal:
    def test_aged_lease_is_stolen_and_recomputed(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1, 2))
        # A worker that died mid-shard: its lease exists but its mtime
        # never advances.  Rewind the mtime instead of sleeping out a
        # real timeout.
        lease = try_claim(run_dir, 1, "dead-worker")
        assert lease is not None
        old = time.time() - 3600.0
        os.utime(lease.path, (old, old))

        result = run_worker(run_dir, worker_id="healthy",
                            poll_interval=0.02, lease_timeout=30.0)
        assert result.status == "completed"
        assert result.stolen == 1
        assert result.claims == 3
        steals = [e for e in _events(run_dir) if e["kind"] == "lease_stolen"]
        assert len(steals) == 1
        assert steals[0]["bit"] == 1
        assert steals[0]["detail"]["stolen_from"] == "dead-worker"
        assert RunManifest.load(run_dir).status == RUN_COMPLETED
        assert verify_run(run_dir).ok

    def test_sigkilled_worker_does_not_sink_the_run(self, tmp_path):
        # Slow-ish shards so the victim is mid-compute when killed.
        bits = (0, 1, 2, 3)
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=bits, trials=60, size=30_000)

        victim = _spawn_worker(run_dir, worker_id="victim",
                               poll_interval=0.02, lease_timeout=2.0)
        # Wait for the victim to claim its first shard, then kill it.
        deadline = time.monotonic() + 30.0
        leases_dir = run_dir / "leases"
        while not (leases_dir.is_dir() and any(
                p.suffix == ".lease" for p in leases_dir.iterdir())):
            assert time.monotonic() < deadline, "victim never claimed a shard"
            time.sleep(0.005)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)

        survivor = run_worker(run_dir, worker_id="survivor",
                              poll_interval=0.02, lease_timeout=0.5)
        assert survivor.status == "completed"
        manifest = RunManifest.load(run_dir)
        assert manifest.status == RUN_COMPLETED
        assert set(manifest.shards) == set(bits)
        assert not manifest.pending_bits()
        assert verify_run(run_dir).ok

        # The survivor either stole the victim's expired lease or the
        # victim's shard landed before the kill; both identities claimed
        # only if the victim got that far — but the run itself must be
        # whole and bit-identical to serial either way.
        serial_dir = tmp_path / "serial"
        run_campaign(
            get_preset(FIELD).generate(seed=DATA_SEED, size=30_000), "posit16",
            CampaignConfig(trials_per_bit=60, bits=bits, seed=42),
            run_dir=serial_dir, executor="serial",
            dataset={"kind": "preset", "field": FIELD, "size": 30_000,
                     "seed": DATA_SEED},
        )
        for bit in bits:
            assert (RunManifest.shard_path(run_dir, bit).read_bytes()
                    == RunManifest.shard_path(serial_dir, bit).read_bytes())

    def test_stale_temp_from_killed_writer_is_swept(self, tmp_path):
        # A SIGKILLed writer can die between writing bit-N.csv.tmp-<pid>
        # and the rename; whoever recomputes the shard must sweep the
        # orphan or `verify` flags the run dir.
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1), trials=2)
        shard = RunManifest.shard_path(run_dir, 0)
        shard.parent.mkdir(parents=True, exist_ok=True)
        orphan = shard.with_name(shard.name + ".tmp-99999")
        orphan.write_bytes(b"torn partial csv from a killed writer")

        result = run_worker(run_dir, worker_id="janitor", poll_interval=0.02)
        assert result.status == "completed"
        assert not list(shard.parent.glob("*.tmp-*"))
        assert verify_run(run_dir).ok


class TestFoldRun:
    def test_fold_is_idempotent(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1))
        run_worker(run_dir, worker_id="w", poll_interval=0.02)
        first = fold_run(run_dir)
        second = fold_run(run_dir)
        assert first.to_json() == second.to_json()
        assert second.status == RUN_COMPLETED

    def test_fold_skips_record_with_missing_shard_file(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1))
        run_worker(run_dir, worker_id="w", poll_interval=0.02)
        # Simulate a record whose shard file vanished: the fold must
        # leave that shard pending rather than trust the record.
        RunManifest.shard_path(run_dir, 0).unlink()
        manifest = RunManifest.load(run_dir)
        for state in manifest.shards.values():
            state.status = "pending"
            state.checksum = None
            state.worker = None
        manifest.status = "submitted"
        manifest.write(run_dir)
        folded = fold_run(run_dir)
        assert folded.pending_bits() == [0]
        assert folded.shards[1].status == "completed"

    def test_worker_recomputes_shard_whose_file_is_gone(self, tmp_path):
        run_dir = tmp_path / "run"
        _submit(run_dir, bits=(0, 1, 2, 3))
        run_worker(run_dir, worker_id="first", poll_interval=0.02)
        # Bit 3's done record outlives its shard file (lost, or moved
        # to quarantine): the record no longer vouches for the shard.
        RunManifest.shard_path(run_dir, 3).unlink()
        manifest = RunManifest.load(run_dir)
        manifest.shards[3].status = "pending"
        manifest.shards[3].checksum = None
        manifest.status = RUN_RUNNING
        manifest.write(run_dir)

        again = run_worker(run_dir, worker_id="second", poll_interval=0.02)
        assert again.status == "completed"
        assert again.claims == 1
        folded = load_folded(run_dir)
        assert folded.status == RUN_COMPLETED
        assert folded.pending_bits() == []
        assert verify_run(run_dir).ok
