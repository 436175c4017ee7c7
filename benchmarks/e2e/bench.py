"""Layered end-to-end campaign benchmark: one command, four workloads.

Run from the repository root::

    python3 benchmarks/e2e/bench.py [--workload NAME] [--seed 2023] [--trace 0|1]
                                    [--out FILE]
    python3 benchmarks/e2e/bench.py --repeat-check 5 [--workload NAME]
    PYTHONPATH=src python -m benchmarks.e2e.bench ...      # the same program

Load model: closed loop, one client.  This parent process runs one
child at a time, each a fresh process (so the in-process memos that a
CLI user never benefits from cannot make later reps skip work), and a
child runs one campaign at a time with at most two worker processes.
A workload run is always ``REPS`` untraced reps; with end-to-end
metrics requested it adds ``EXTRA_SETUPS`` set-up-only children, and
with per-layer metrics requested one traced rep.  End-to-end times come
from the untraced reps: ``wall_s`` sums each campaign's fastest rep,
shard-gap percentiles are taken over the reps' lower envelope, set-up
time is the median over every set-up, and peak RSS the median over the
reps.  Per-layer metrics come from the traced rep.

Every rep's outputs are checked: each persisted campaign must pass
``verify_run`` without errors, every rep (traced too) must produce the
same record digest, and for seeds with a pinned digest in
``baseline.json`` the digest must match it.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` (shards),
``failed`` (retried, hung, quarantined or lost shards) and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.layers import (  # noqa: E402  (needs ROOT on sys.path)
    WORKLOADS,
    layer_metrics,
    layer_seconds,
)

#: Untraced reps per workload run.  Fixed, so every commit's estimators
#: see the same sample size whatever the speed of the code under test.
REPS = 3
#: Set-up-only children that add samples to the ``setup_s`` median.
EXTRA_SETUPS = 4
#: Wall-clock budget of one workload run, children included.
RUN_BUDGET_S = 170.0
#: Rep run directories; ignored by this directory's ``.gitignore``.
SCRATCH = HERE / ".scratch"


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement at all."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def pinned_digest(seed: int, workload: str) -> str | None:
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    return baseline["pinned_digests"].get(str(seed), {}).get(workload)


# -- children ---------------------------------------------------------------


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def spawn(kind: str, workload: str, seed: int, deadline: float,
          workdir: Path | None = None) -> dict:
    """Run one child to completion and return the JSON it printed."""
    command = [sys.executable, str(HERE / "bench.py"), "--child", kind,
               "--workload", workload, "--seed", str(seed)]
    if workdir is not None:
        command += ["--workdir", str(workdir)]
    # The workloads fix telemetry, tracing and codec backends themselves;
    # REPRO_* switches inherited from the caller's shell must not.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    started = time.monotonic()
    command += ["--started", repr(started)]
    # Its own process group, so a timeout kills the child's pool workers too.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - started, 1.0))
    except BaseException:
        _kill_group(proc)
        raise
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"{kind} child for {workload} exited {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def rep(workload: str, seed: int, deadline: float, *, traced: bool) -> dict:
    workdir = SCRATCH / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    try:
        return spawn("traced" if traced else "rep", workload, seed, deadline, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def child_main(args) -> None:
    sys.path.insert(0, str(SRC))
    from benchmarks.e2e import workloads

    if args.child == "setup":
        report = {"setup_s": workloads.setup_time(args.workload, args.seed, args.started)}
    else:
        report = workloads.run_rep(
            args.workload, args.seed, args.workdir,
            traced=args.child == "traced", started=args.started,
        )
    print(json.dumps(report))


# -- one workload run -------------------------------------------------------


def _percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def lower_envelope(reps_gaps: list[list[list[float]]]) -> list[float]:
    """Shard gaps with the host's bursts filtered out.

    ``reps_gaps[r][c]`` holds rep ``r``'s gaps for campaign ``c``.  For
    each campaign, the k-th smallest gap of the envelope is the minimum
    over reps of each rep's k-th smallest gap -- ranks rather than
    shard positions, because the pool finishes shards in varying order.
    """
    return [
        min(rank)
        for campaign in zip(*reps_gaps)
        for rank in zip(*(sorted(gaps) for gaps in campaign))
    ]


def measure(workload: str, seed: int, *, end_to_end: bool = True,
            traced: bool = True) -> dict:
    """``REPS`` untraced reps, then the set-up samples and traced rep asked for."""
    deadline = time.monotonic() + RUN_BUDGET_S
    reps = [rep(workload, seed, deadline, traced=False) for _ in range(REPS)]
    setups = [
        spawn("setup", workload, seed, deadline)["setup_s"]
        for _ in range(EXTRA_SETUPS if end_to_end else 0)
    ]
    traced_rep = rep(workload, seed, deadline, traced=True) if traced else None
    return summarize(workload, seed, reps, traced_rep, pinned_digest(seed, workload), setups)


def summarize(workload: str, seed: int, reps: list[dict], traced_rep: dict | None,
              expected: str | None, setups: list[float] = ()) -> dict:
    """Checks and metrics of one workload run, from its reps' reports."""
    checked = reps + ([traced_rep] if traced_rep else [])
    errors = [error for r in checked for error in r["errors"]]
    digests = sorted({r["digest"] for r in checked})
    if len(digests) != 1:
        errors.append(f"reps disagree on the record digest: {digests}")
    elif expected is not None and digests[0] != expected:
        errors.append(f"record digest {digests[0]} != expected {expected}")

    # Every rep repeats identical work, and contention from other tenants
    # of the host only ever adds time, in bursts of a few seconds that
    # land on different campaigns in different reps.  So each campaign
    # (and each gap rank within it) is taken from its fastest rep.
    wall_s = sum(min(times) for times in zip(*(r["campaign_s"] for r in reps)))
    gaps = lower_envelope([r["shard_gaps_s"] for r in reps])
    end_to_end = {
        "setup_s": statistics.median([r["setup_s"] for r in reps] + list(setups)),
        "wall_s": wall_s,
        "trials_per_s": statistics.median(r["trials"] for r in reps) / wall_s,
        "shard_p50_ms": _percentile(gaps, 50) * 1e3,
        "shard_p90_ms": _percentile(gaps, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024.0,
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "correct": not errors,
        "errors": errors,
        "attempted": sum(r["shards"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "reps": len(reps),
        "setup_samples": len(reps) + len(setups),
        "rep_wall_s": [r["wall_s"] for r in reps],
        "shard_samples": len(gaps),
        "digest": digests[0],
        "end_to_end": end_to_end,
    }
    if traced_rep is not None:
        raw = traced_rep["layers"]
        summary["per_layer"] = layer_metrics(
            raw, traced_rep["wall_s"], traced_rep["setup_s"],
            statistics.median(summary["rep_wall_s"]),
        )
        summary["layer_seconds"] = layer_seconds(raw)
        summary["layer_calls"] = raw["calls"]
    return summary


# -- reporting --------------------------------------------------------------


def result_line(summary: dict, spec: dict, trace: int | None) -> dict:
    sections = {0: ("end_to_end",), 1: ("per_layer",), None: ("end_to_end", "per_layer")}
    metrics = {}
    for section in sections[trace]:
        for entry in spec[section]:
            metrics[entry["name"]] = {
                "value": summary[section][entry["name"]],
                "unit": entry["unit"],
            }
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def print_summary(summary: dict, spec: dict) -> None:
    verdict = "correct" if summary["correct"] else "INCORRECT"
    print(f"== {summary['workload']}  seed {summary['seed']}  {summary['reps']} reps, "
          f"{summary['setup_samples']} set-ups, {summary['shard_samples']} shard gaps  "
          f"digest {summary['digest'][:16]}  {verdict}")
    for error in summary["errors"]:
        print(f"   error: {error}")
    for entry in spec["end_to_end"]:
        value = summary["end_to_end"][entry["name"]]
        print(f"   {entry['name']:<16} {value:>14.6g} {entry['unit']:<9} "
              f"(bound {entry['bound']:.0%}, {entry['better']} is better)")
    print(f"   {'shard_p90_ms':<16} {summary['end_to_end']['shard_p90_ms']:>14.6g} ms"
          "        (for information; not gated)")
    if "per_layer" in summary:
        seconds = summary["layer_seconds"]
        print("   traced rep, self seconds by layer:")
        for layer, value in sorted(seconds.items(), key=lambda kv: -kv[1]):
            print(f"     {layer:<28} {value:>10.4f} s")
        for entry in spec["per_layer"]:
            value = summary["per_layer"][entry["name"]]
            print(f"   {entry['name']:<32} {value:>14.6g} {entry['unit']}")


def repeat_check(workloads, seed: int, runs: int, spec: dict) -> tuple:
    """Two sets of ``runs`` runs per workload; flag medians further apart than the bound."""
    report, ok = {}, True
    for workload in workloads:
        sets = [[measure(workload, seed, traced=False) for _ in range(runs)]
                for _ in range(2)]
        print(f"== {workload}  seed {seed}  2 x {runs} runs")
        for summary in (s for set_runs in sets for s in set_runs):
            ok &= summary["correct"] and summary["failed"] == 0
            for error in summary["errors"]:
                print(f"   error: {error}")
        rows = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            stats = []
            for set_runs in sets:
                values = [s["end_to_end"][name] for s in set_runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                stats.append({"median": median, "q1": q1, "q3": q3, "values": values})
            shift = abs(stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            flagged = shift > entry["bound"]
            ok &= not flagged
            rows[name] = {"sets": stats, "shift": shift, "flagged": flagged}
            print(f"   {name:<14} " + "  ".join(
                f"{s['median']:>11.5g} [{s['q1']:.5g}, {s['q3']:.5g}]" for s in stats
            ) + f"  shift {shift:6.2%} bound {entry['bound']:.0%}"
              + ("  FLAGGED" if flagged else ""))
        report[workload] = rows
    return report, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float,
                        help="accepted for harnesses that pass a run length, and "
                             f"ignored: a run is always {REPS} reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only "
                             "(untraced reps plus the traced rep); default: both")
    parser.add_argument("--out", type=Path, help="also write the full results as JSON")
    parser.add_argument("--repeat-check", type=int, metavar="N",
                        help="run two sets of N runs per workload and compare medians")
    parser.add_argument("--child", choices=("rep", "traced", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        child_main(args)
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: no program under test at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # A SIGTERM unwinds like Ctrl-C, so the running child's process
    # group is killed and its scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.repeat_check is not None:
            if args.repeat_check < 2:
                parser.error("--repeat-check needs N >= 2")
            report, ok = repeat_check(workloads, args.seed, args.repeat_check, spec)
            if args.out:
                args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
            return 0 if ok else 1
        summaries = []
        for workload in workloads:
            summary = measure(workload, args.seed,
                              end_to_end=args.trace != 1, traced=args.trace != 0)
            summaries.append(summary)
            print_summary(summary, spec)
            print(json.dumps(result_line(summary, spec, args.trace)), flush=True)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    if args.out:
        args.out.write_text(json.dumps(summaries, indent=2) + "\n", encoding="utf-8")
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
