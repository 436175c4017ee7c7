#!/usr/bin/env python3
"""Profiling a campaign: telemetry spans, counters, and the run report.

Demonstrates the observability layer end to end:

1. run a profiled campaign (`telemetry=True`, the CLI's `--profile`)
   into a run directory;
2. read the merged snapshot — counters and spans from the codec hot
   path up — off the result and from `telemetry.json`;
3. show the per-phase wall-clock breakdown (exclusive self-time, so
   the shares sum to 100%);
4. verify the parallel-merge contract: per-counter totals identical
   for jobs=1 and jobs=N on the same seeded campaign;
5. render the markdown run report that joins the event log with the
   telemetry (`posit-resiliency telemetry report` equivalent).

Run:  python examples/campaign_profiling.py [--size N] [--trials N] [--jobs N]
"""

import argparse
import shutil
import tempfile
from pathlib import Path

from repro.datasets import get as get_field
from repro.formats import resolve
from repro.inject import CampaignConfig, run_campaign
from repro.telemetry import (
    Telemetry,
    format_duration,
    load_run_snapshot,
    render_run_report,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--field", default="hurricane/pf48")
    parser.add_argument("--size", type=int, default=1 << 14)
    parser.add_argument("--trials", type=int, default=24)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    data = get_field(args.field).generate(seed=2023, size=args.size)
    config = CampaignConfig(trials_per_bit=args.trials, seed=2023)
    target = resolve("posit32")

    run_dir = Path(tempfile.mkdtemp(prefix="campaign-profiling-")) / "run"
    try:
        print(f"== profiled run ({args.field}, posit32, jobs={args.jobs}) ==")
        result = run_campaign(
            data, target, config,
            jobs=args.jobs, run_dir=run_dir, telemetry=True,
        )
        snapshot = result.extras["telemetry"]
        print(f"  {result.trial_count} trials; "
              f"telemetry written to {run_dir / 'telemetry.json'}\n")

        print("== where the time went (exclusive self-time) ==")
        phases = snapshot.phase_seconds()
        total = sum(phases.values())
        for phase, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
            print(f"  {phase:<10} {format_duration(seconds):>8}  "
                  f"{seconds / total:6.1%}")
        print()

        print("== counters ==")
        for name in sorted(snapshot.counters):
            print(f"  {name:<36} {snapshot.counters[name]:,}")
        print()

        print("== jobs=1 vs jobs=N: merged counters are scheduling-independent ==")
        serial = Telemetry()
        run_campaign(data, target, config, jobs=1, telemetry=serial)
        parallel = Telemetry()
        run_campaign(data, target, config, jobs=args.jobs, telemetry=parallel)
        identical = serial.snapshot().counters == parallel.snapshot().counters
        print(f"  per-counter totals identical: {identical}\n")
        assert identical

        # the same snapshot, re-read from disk
        assert load_run_snapshot(run_dir).counters == snapshot.counters

        print("== run report (telemetry report equivalent) ==")
        print(render_run_report(run_dir))
        return 0
    finally:
        shutil.rmtree(run_dir.parent, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
