"""Smoke test of the end-to-end benchmark on tiny shapes.

Not part of the tier-1 suite (which collects only ``tests/``); run it
explicitly from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import bench
from benchmarks.e2e.layers import APPS, BIGFIELD, PARALLEL, PERSIST, WORKLOADS
from benchmarks.e2e.workloads import AppShape, CampaignShape, run_rep

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = {
    PERSIST: CampaignShape(("cesm/cloud", "hacc/vx"), size=256, trials=4, bits=(0, 15, 31)),
    BIGFIELD: CampaignShape(("cesm/cloud",), size=1024, trials=4, bits=(0, 31)),
    PARALLEL: CampaignShape(("cesm/cloud", "hacc/vx"), size=256, trials=4, bits=(0, 15, 31)),
    APPS: AppShape(grid=4, iterations=(2,), bits=(0, 30)),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Two untraced reps and one traced rep per workload, in process."""
    out = {}
    for workload in WORKLOADS:
        root = tmp_path_factory.mktemp(workload)
        out[workload] = [
            run_rep(workload, 2023, root / name, traced=name == "traced",
                    shape=TINY[workload])
            for name in ("first", "second", "traced")
        ]
    return out


def test_spec_names_and_units_follow_the_rules():
    names = [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [entry["name"] for entry in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reported_metrics_match_the_spec(reports, workload):
    first, second, traced = reports[workload]
    summary = bench.summarize(workload, 2023, [first, second], traced, None)
    assert summary["correct"], summary["errors"]
    line = bench.result_line(summary, SPEC, None)
    expected = {e["name"]: e["unit"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    for entry in SPEC["end_to_end"]:
        assert line["metrics"][entry["name"]]["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_partition_the_wall(reports, workload):
    traced = reports[workload][2]
    assert not traced["errors"], traced["errors"]
    body = traced["layers"]["self_s"]["body"]
    assert sum(body.values()) == pytest.approx(traced["wall_s"], rel=0.01)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_is_stable_across_reps_and_tracing(reports, workload):
    digests = {report["digest"] for report in reports[workload]}
    assert len(digests) == 1


def test_a_digest_mismatch_fails_the_run(reports):
    first, second, _ = reports[PERSIST]
    summary = bench.summarize(PERSIST, 2023, [first, second], None, "0" * 64)
    assert not summary["correct"]
    assert "!= expected" in summary["errors"][-1]


def test_setup_s_is_the_median_over_reps_and_set_up_only_children(reports):
    first, second, _ = reports[PERSIST]
    summary = bench.summarize(PERSIST, 2023, [first, second], None, None, [9.0, 9.0, 9.0])
    assert summary["setup_samples"] == 5
    assert summary["end_to_end"]["setup_s"] == 9.0


def test_pool_reproduces_the_serial_records(reports):
    assert reports[PARALLEL][0]["digest"] == reports[PERSIST][0]["digest"]


def test_pinned_digests_agree_across_persisted_and_parallel():
    pins = json.loads((Path(bench.HERE) / "baseline.json").read_text())["pinned_digests"]
    for seed_pins in pins.values():
        assert seed_pins[PERSIST] == seed_pins[PARALLEL]
