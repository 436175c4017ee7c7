"""Command-line interface.

::

    posit-resiliency datasets                      # Table 1 summary
    posit-resiliency targets                       # available number systems
    posit-resiliency experiments                   # list experiment ids
    posit-resiliency experiment fig10 --quick      # run one experiment
    posit-resiliency experiment all                # run every experiment
    posit-resiliency campaign run nyx/temperature posit32 --trials 313 \
        --jobs 4 --run-dir runs/nyx --out trials.csv
    posit-resiliency campaign run ... --executor work-stealing
    posit-resiliency campaign resume runs/nyx      # continue after interrupt
    posit-resiliency campaign status runs/nyx      # shard/trial progress
    posit-resiliency campaign status runs/nyx --json   # machine-readable
    posit-resiliency campaign verify runs/nyx      # audit run-dir integrity
    posit-resiliency campaign run ... --profile    # collect telemetry
    posit-resiliency config init                   # create ~/.repro (or $REPRO_HOME)
    posit-resiliency campaign submit nyx/temperature posit32 --trials 32
    posit-resiliency campaign run ... --fault "adjacent(2)"  # multi-bit model
    posit-resiliency campaign sweep nyx/temperature \
        --formats posit32,ieee32 --faults "single,adjacent(2),random(3)"
    posit-resiliency campaign run --app cg posit16 --inject-at 5,10
    posit-resiliency campaign sweep --app cg \
        --formats posit32,ieee32 --faults "single,adjacent(2)"
    posit-resiliency campaign worker <run-dir-or-id>   # claim shards via leases
    posit-resiliency campaign watch <run-dir-or-id> --until-done
    posit-resiliency campaign list                 # registry index
    posit-resiliency campaign get <run-id> --json  # canonical run state
    posit-resiliency campaign cancel <run-id>      # cooperative cancel
    posit-resiliency campaign submit ... --trace   # fleet-wide tracing on
    posit-resiliency campaign top <run-dir-or-id>  # live per-worker fleet view
    posit-resiliency campaign trace export <run>   # Chrome trace-event JSON
    posit-resiliency campaign metrics <run> --format prometheus
    posit-resiliency telemetry report runs/nyx     # per-phase time breakdown
    posit-resiliency conformance run --level smoke # gate codecs + metrics
    posit-resiliency conformance bless             # refresh golden fixtures
    posit-resiliency inspect 186.25                # show representations

Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_datasets(args) -> int:
    from repro.datasets.registry import keys
    from repro.datasets.summary import summarize_field
    from repro.reporting.series import Table
    from repro.reporting.tables import render_table

    table = Table(
        title="Registered dataset fields",
        columns=["key", "dims", "mean", "median", "max", "min", "std"],
    )
    for key in keys():
        summary = summarize_field(key, seed=args.seed, size=args.size)
        stats = summary.generated
        table.add_row([
            key,
            "x".join(str(d) for d in summary.preset.dimensions),
            stats.mean, stats.median, stats.maximum, stats.minimum, stats.std,
        ])
    print(render_table(table))
    return 0


def _cmd_targets(args) -> int:
    from repro.formats import available_formats, resolve

    names = list(available_formats())
    names.extend(spec for spec in args.spec if spec not in names)
    for name in names:
        target = resolve(name)
        print(f"{name:26s} {target.nbits:3d} bits  [{target.backend_name:6s}]  {target.describe()}")
    print()
    print("Any spec also works: posit<N>[es<E>], binary(<E>,<F>), "
          "fixedposit(<N>[,es=<E>][,r=<R>]) — e.g. posit16es1, binary(8,23).")
    return 0


def _cmd_experiments(_args) -> int:
    from repro.experiments import experiment_ids, get_experiment

    for exp_id in experiment_ids():
        spec = get_experiment(exp_id)
        print(f"{exp_id:14s} [{spec.paper_ref}] {spec.title}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import ExperimentParams, experiment_ids, get_experiment

    if args.quick:
        params = ExperimentParams.quick()
    elif args.paper_scale:
        params = ExperimentParams.paper_scale()
    else:
        params = ExperimentParams()
    if args.size or args.trials:
        params = ExperimentParams(
            data_size=args.size or params.data_size,
            trials_per_bit=args.trials or params.trials_per_bit,
            seed=args.seed,
        )
    ids = experiment_ids() if args.id == "all" else [args.id]
    failures = 0
    for exp_id in ids:
        output = get_experiment(exp_id).run(params)
        print(output.render())
        print()
        failures += len(output.failed_checks())
    if failures:
        print(f"{failures} check(s) FAILED", file=sys.stderr)
        return 1
    return 0


def _jobs_arg(value: str) -> int:
    """Argparse type for worker counts: a positive integer."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer, got {value!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _print_campaign_result(result, field: str, target: str, out: str | None) -> None:
    """Summarize a value or app campaign, then write or tabulate its records."""
    app = hasattr(result.records, "outcome")
    if app:
        from repro.analysis.appsweep import outcome_counts

        counts = outcome_counts(result.records)
        print(
            f"app campaign: {result.trial_count} fault trials on {field} as "
            f"{result.target_name} (state size {result.data_size})"
        )
        print("outcomes: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    else:
        print(
            f"campaign: {result.trial_count} trials on {field} as "
            f"{result.target_name} (data size {result.data_size})"
        )
        print(
            f"conversion: mean rel err {result.conversion.mean_relative_error:.3e}, "
            f"exact fraction {result.conversion.exact_fraction:.3f}"
        )
    if result.extras.get("run_dir"):
        resumed = result.extras.get("resumed_shards", 0)
        note = f" ({resumed} shard(s) restored)" if resumed else ""
        print(f"run dir: {result.extras['run_dir']}{note}")
    snapshot = None if app else result.extras.get("telemetry")
    if snapshot is not None and not snapshot.empty:
        from repro.telemetry import format_duration

        breakdown = ", ".join(
            f"{phase} {format_duration(seconds)}"
            for phase, seconds in sorted(
                snapshot.phase_seconds().items(), key=lambda kv: -kv[1]
            )
        )
        print(f"profile: {breakdown}")
        if result.extras.get("run_dir"):
            print(
                "profile: full breakdown via "
                f"`posit-resiliency telemetry report {result.extras['run_dir']}`"
            )
    if out:
        result.records.write_csv(out)
        print(f"wrote {out}")
    elif not app:
        from repro.analysis.aggregate import aggregate_by_bit
        from repro.reporting.series import Figure, Series
        from repro.reporting.tables import render_series_table

        agg = aggregate_by_bit(result.records, result.records.bit.max() + 1)
        figure = Figure(
            title=f"mean relative error per bit ({field}, {target})",
            x_label="bit",
            y_label="mean rel err",
        )
        figure.add(Series(target, agg.bits, agg.mean_rel_err))
        print(render_series_table(figure))


def _parse_inject_at(text: str) -> tuple[int, ...]:
    """Argparse helper: --inject-at as 1-based solver iterations."""
    try:
        schedule = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(
            f"error: --inject-at must be comma-separated iteration numbers, "
            f"got {text!r}"
        ) from None
    if not schedule:
        raise SystemExit("error: --inject-at needs at least one iteration")
    return schedule


def _campaign_target(args, command: str) -> str:
    """The format positional of ``campaign run/submit``.

    Value campaigns take ``FIELD TARGET``.  The ``field`` and ``target``
    positionals are both optional so that app campaigns can be spelled
    ``campaign run --app cg posit32``; argparse binds that lone
    positional to ``field``.
    """
    if not args.app:
        if args.field is None or args.target is None:
            print(f"error: {command} needs FIELD and TARGET positionals "
                  "(or --app APP with a single format positional)", file=sys.stderr)
            raise SystemExit(2)
        return args.target
    positionals = [p for p in (args.field, args.target) if p is not None]
    if len(positionals) != 1:
        raise SystemExit(
            "error: with --app, give exactly one positional argument — the "
            "format spec (e.g. `campaign run --app cg posit32`)"
        )
    return positionals[0]


def _campaign_runner(args, target: str, fault: str, **kwargs):
    """The one place parsed campaign args become a runner.

    A dataset field gives a :class:`repro.runner.CampaignRunner` over the
    regenerated preset, with its provenance recorded so ``campaign
    resume`` and lease workers can rebuild the field; ``--app`` gives an
    :class:`repro.apps.campaign.AppCampaignRunner`.  ``kwargs`` (label,
    run_dir, jobs, trace, ...) go to the runner.
    """
    bits = getattr(args, "bits", None)  # only submit/sweep take --bits
    bits = tuple(range(bits)) if bits is not None else None
    if args.app:
        from repro.apps.campaign import AppCampaignConfig, AppCampaignRunner

        config = AppCampaignConfig(
            app=args.app,
            grid=args.grid,
            iterations=_parse_inject_at(args.inject_at),
            trials_per_cell=args.trials if args.trials is not None else 3,
            bits=bits,
            seed=args.seed,
            fault=fault,
            sdc_threshold=args.sdc_threshold,
        )
        return AppCampaignRunner(config, target, **kwargs)
    from repro.datasets.registry import get as get_preset
    from repro.inject.campaign import PAPER_TRIALS_PER_BIT, CampaignConfig
    from repro.runner import CampaignRunner

    data = get_preset(args.field).generate(seed=args.seed, size=args.size)
    config = CampaignConfig(
        trials_per_bit=args.trials if args.trials is not None else PAPER_TRIALS_PER_BIT,
        bits=bits,
        seed=args.seed,
        fault=fault,
    )
    kwargs.setdefault("label", args.field)
    dataset = {"kind": "preset", "field": args.field, "size": args.size, "seed": args.seed}
    return CampaignRunner(data, target, config, dataset=dataset, **kwargs)


def _cmd_campaign_run(args) -> int:
    target = _campaign_target(args, "campaign run")
    try:
        runner = _campaign_runner(
            args,
            target,
            args.fault,
            jobs=args.jobs,
            executor=args.executor,
            run_dir=args.run_dir,
            progress=args.progress,
            telemetry=True if args.profile else None,
            trace=True if args.trace else None,
        )
    except ValueError as error:  # fault spec, format spec, or app schedule
        print(f"error: {error}", file=sys.stderr)
        return 1
    result = runner.run(resume=args.resume)
    _print_campaign_result(result, args.app or args.field, target, args.out)
    return 0


def _cmd_campaign_resume(args) -> int:
    from repro.runner import resume_campaign

    if args.fault is not None:
        # --fault on resume is a guard, not an override: the manifest
        # owns the run's fault model (it is part of the identity).
        from repro.inject.faultspec import FaultSpecError, resolve_fault
        from repro.runner.manifest import RunManifest

        try:
            requested = resolve_fault(args.fault).spec
        except FaultSpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        recorded = RunManifest.load(args.run_dir).fault
        if requested != recorded:
            print(
                f"error: run {args.run_dir} was created with fault model "
                f"{recorded!r}, not {requested!r}; the fault model is part "
                "of the run identity and cannot change on resume",
                file=sys.stderr,
            )
            return 1
    result = resume_campaign(
        args.run_dir, jobs=args.jobs, executor=args.executor,
        progress=args.progress,
        telemetry=True if args.profile else None,
        trace=True if args.trace else None,
    )
    _print_campaign_result(result, result.label or "dataset", result.target_name, args.out)
    return 0


def _cmd_telemetry_report(args) -> int:
    from repro.telemetry import render_prometheus, load_run_snapshot, render_run_report

    try:
        if args.format == "markdown":
            text = render_run_report(args.run_dir)
        else:
            snapshot = load_run_snapshot(args.run_dir)
            if snapshot is None:
                print(
                    f"error: no telemetry.json in {args.run_dir} "
                    "(run the campaign with --profile or REPRO_TELEMETRY=1)",
                    file=sys.stderr,
                )
                return 1
            if args.format == "prometheus":
                text = render_prometheus(snapshot)
            else:  # json
                import json

                text = json.dumps(snapshot.to_json(), indent=2, sort_keys=True)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_campaign_status(args) -> int:
    from repro.runner import RunnerError, run_status

    try:
        status = run_status(args.run_dir)
    except (RunnerError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        import json

        from repro.service import run_status_payload

        print(json.dumps(run_status_payload(args.run_dir), indent=2))
    else:
        print(status.summary())
    return 0 if status.complete else 2


def _resolve_service_run_dir(ref: str):
    """A run directory from a registry id or path, exiting 1 on failure."""
    from repro.service import RunRegistry, ServiceError

    try:
        return RunRegistry().resolve_run_dir(ref)
    except (ServiceError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(1) from None


def _submit_runs(args, formats: list[str], faults: list[str], label) -> list | None:
    """Submit one registry run per (format, fault model) cell.

    Each run is built by :func:`_campaign_runner` for the directory the
    registry allocates; ``label(fault)`` names it.  On failure the error
    (and every run already submitted) is printed and ``None`` returned.
    """
    from repro.service import RunRegistry, ServiceError

    registry = RunRegistry()
    field = f"app/{args.app}" if args.app else args.field
    trace = True if args.trace else None
    entries = []
    try:
        for fmt in formats:
            for fault in faults:
                def build(run_dir, fmt=fmt, fault=fault):
                    return _campaign_runner(args, fmt, fault, label=label(fault),
                                            run_dir=run_dir, trace=trace)

                name = f"{args.app}-{fmt}" if args.app else fmt
                entries.append(registry.submit(build, name=name, field=field,
                                               project=args.project))
    except (ServiceError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        for entry in entries:
            print(f"note: {entry.run_id} was submitted before the failure",
                  file=sys.stderr)
        return None
    return entries


def _cmd_campaign_submit(args) -> int:
    target = _campaign_target(args, "campaign submit")
    label = args.label or args.app or args.field
    entries = _submit_runs(args, [target], [args.fault], lambda fault: label)
    if entries is None:
        return 1
    [entry] = entries
    if args.json:
        import json

        print(json.dumps(entry.to_json(), indent=2))
    else:
        print(f"submitted {entry.run_id} -> {entry.run_dir}")
        print(f"start workers with: posit-resiliency campaign worker {entry.run_id}")
    return 0


def _split_specs(text: str) -> list[str]:
    """Split a comma-separated spec list, respecting parentheses.

    Both format specs (``binary(8,23)``) and fault specs
    (``stuckat(31,1)``) contain commas of their own, so the list
    separator is only a comma at parenthesis depth zero.
    """
    parts, depth, start = [], 0, 0
    for i, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(depth - 1, 0)
        elif char == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [part for part in (p.strip() for p in parts) if part]


def _cmd_campaign_sweep(args) -> int:
    from repro.inject.faultspec import FaultSpecError, resolve_fault

    formats = _split_specs(args.formats)
    faults = _split_specs(args.faults)
    if not formats or not faults:
        print("error: --formats and --faults each need at least one entry",
              file=sys.stderr)
        return 1
    try:
        faults = [resolve_fault(spec).spec for spec in faults]
    except FaultSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.app and args.field is not None:
        print("error: campaign sweep takes either FIELD (value campaign) or "
              "--app APP (app campaign), not both", file=sys.stderr)
        return 2
    if not args.app and args.field is None:
        print("error: campaign sweep needs the FIELD positional (or --app APP)",
              file=sys.stderr)
        return 2
    base = args.app or args.field
    entries = _submit_runs(args, formats, faults, lambda fault: f"{base} [{fault}]")
    if entries is None:
        return 1
    if args.json:
        import json

        print(json.dumps([entry.to_json() for entry in entries], indent=2))
        return 0
    print(
        f"swept {len(formats)} format(s) x {len(faults)} fault model(s): "
        f"{len(entries)} run(s) submitted"
    )
    for entry in entries:
        print(f"  {entry.run_id:<20s} {entry.target:<14s} {entry.label}")
    print("start workers with: posit-resiliency campaign worker <run-id>")
    return 0


def _cmd_campaign_list(args) -> int:
    from repro.service import RunRegistry, run_status_payload

    entries = RunRegistry().list_runs(args.project)
    if args.json:
        import json

        print(json.dumps([entry.to_json() for entry in entries], indent=2))
        return 0
    if not entries:
        print("no registered runs (use `campaign submit` to create one)")
        return 0
    for entry in entries:
        try:
            payload = run_status_payload(entry.run_dir)
            state = (
                f"{payload['status']:<11s} "
                f"{payload['shards']['done']}/{payload['shards']['total']} shards"
            )
        except Exception as error:
            state = f"unreadable ({error})"
        print(
            f"{entry.run_id:<20s} {entry.project:<10s} "
            f"{entry.field:<18s} {entry.target:<12s} {state}"
        )
    return 0


def _cmd_campaign_get(args) -> int:
    run_dir = _resolve_service_run_dir(args.run)
    from repro.runner import run_status
    from repro.service import run_status_payload

    if args.json:
        import json

        print(json.dumps(run_status_payload(run_dir), indent=2))
    else:
        print(run_status(run_dir).summary())
    return 0


def _cmd_campaign_watch(args) -> int:
    from repro.service import WATCH_CANCELLED, WATCH_IDLE, watch_run

    run_dir = _resolve_service_run_dir(args.run)
    outcome = watch_run(
        run_dir,
        follow=not args.no_follow,
        until_done=args.until_done,
        timeout=args.timeout,
        poll_interval=args.poll_interval,
        json_mode=args.json,
        stall_after=args.stall_after,
    )
    if outcome == WATCH_CANCELLED:
        return 3
    if outcome == WATCH_IDLE and args.until_done:
        return 2
    return 0


def _cmd_campaign_cancel(args) -> int:
    from repro.service import RunRegistry, ServiceError

    try:
        run_dir = RunRegistry().cancel(args.run, reason=args.reason)
    except (ServiceError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"cancel requested for {run_dir} (workers stop at their next claim)")
    return 0


def _cmd_campaign_worker(args) -> int:
    from repro.runner import RunnerError
    from repro.runner.worker import run_worker

    run_dir = _resolve_service_run_dir(args.run)
    try:
        result = run_worker(
            run_dir,
            worker_id=args.worker_id,
            lease_timeout=args.lease_timeout,
            poll_interval=args.poll_interval,
            max_claims=args.max_claims,
            max_idle_seconds=args.max_idle,
            telemetry=True if args.profile else None,
            trace=True if args.trace else None,
        )
    except (RunnerError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"worker {result.worker}: {result.claims} shard(s) computed, "
        f"{result.stolen} lease(s) stolen, exit status {result.status}"
        + (" (finalized the run)" if result.finalized else "")
    )
    return 3 if result.status == "cancelled" else 0


def _cmd_campaign_top(args) -> int:
    from repro.service import campaign_top, fleet_snapshot

    run_dir = _resolve_service_run_dir(args.run)
    if args.json:
        import json

        snapshot = fleet_snapshot(
            run_dir,
            straggler_factor=args.straggler_factor,
            stall_after=args.stall_after,
        )
        print(json.dumps(snapshot.to_json(), indent=2, sort_keys=True))
        return 3 if snapshot.cancelled else 0
    try:
        return campaign_top(
            run_dir,
            refresh=args.refresh,
            iterations=1 if args.once else None,
            straggler_factor=args.straggler_factor,
            stall_after=args.stall_after,
        )
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_campaign_trace_export(args) -> int:
    from repro.telemetry import read_trace, write_chrome_trace

    run_dir = _resolve_service_run_dir(args.run)
    if not read_trace(run_dir):
        print(
            f"error: no trace records under {run_dir} "
            "(run the campaign with --trace or REPRO_TRACE=1)",
            file=sys.stderr,
        )
        return 1
    out = write_chrome_trace(run_dir, out=args.out)
    print(f"wrote {out} (load via chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_campaign_metrics(args) -> int:
    from repro.telemetry import (
        aggregate_metrics,
        read_metrics,
        render_metrics_prometheus,
    )

    run_dir = _resolve_service_run_dir(args.run)
    series = read_metrics(run_dir)
    if not series:
        print(
            f"error: no metrics series under {run_dir} "
            "(run the campaign with --trace or REPRO_TRACE=1)",
            file=sys.stderr,
        )
        return 1
    if args.format == "prometheus":
        text = render_metrics_prometheus(series)
    else:  # json
        import json

        text = json.dumps(
            {
                "schema": "repro.fleet-metrics/1",
                "workers": series,
                "run": aggregate_metrics(series),
            },
            indent=2,
            sort_keys=True,
        )
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_config_init(args) -> int:
    from repro.service import init_config

    config = init_config(args.home, force=args.force)
    print(f"initialized {config.home}")
    print(f"  runs:  {config.runs_dir}")
    print(f"  cache: {config.cache_dir}")
    return 0


def _cmd_config_show(args) -> int:
    import json

    from repro.service import load_config

    config = load_config(args.home)
    print(json.dumps({"home": str(config.home), **config.to_json()}, indent=2))
    return 0


def _cmd_campaign_verify(args) -> int:
    from repro.runner import verify_run

    report = verify_run(args.run_dir)
    print(report.render())
    return report.exit_code


def _cmd_conformance_run(args) -> int:
    from repro.conformance import run_conformance

    kwargs = {"golden_dir": args.golden_dir}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    report = run_conformance(args.level, args.format or None, **kwargs)
    text = report.render()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    print(text)
    return report.exit_code


def _cmd_conformance_bless(args) -> int:
    from repro.conformance import bless

    paths = bless(args.golden_dir, formats=args.format or None)
    for path in paths:
        print(f"blessed {path}")
    return 0


def _cmd_suite(args) -> int:
    from repro.inject.suite import SuiteConfig, run_suite
    from repro.runner import RunnerError

    if args.fields:
        fields = tuple(args.fields.split(","))
        config = SuiteConfig(
            fields=fields, data_size=args.size,
            trials_per_bit=args.trials, seed=args.seed,
        )
    else:
        config = SuiteConfig.paper_grid(
            data_size=args.size, trials_per_bit=args.trials, seed=args.seed
        )

    def progress(field_key, target, campaign):
        if campaign is None:
            print(f"  [skip] {field_key} x {target} (run complete)")
        else:
            print(f"  [done] {field_key} x {target}: {campaign.trial_count} trials")

    try:
        result = run_suite(config, args.out, jobs=args.jobs, progress=progress)
    except RunnerError as error:  # old-layout directory, or a different campaign
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"suite: {len(result.completed)} campaigns run, "
        f"{len(result.skipped)} resumed from {args.out}"
    )
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import ExperimentParams
    from repro.reporting.report import generate_report

    if args.quick:
        params = ExperimentParams.quick()
    elif args.paper_scale:
        params = ExperimentParams.paper_scale()
    else:
        params = ExperimentParams()
    path = generate_report(args.out, params)
    print(f"wrote {path}")
    return 0


def _cmd_inspect(args) -> int:
    from repro.formats import resolve

    value = float(args.value)
    targets = [resolve(spec) for spec in (args.target or ["ieee32", "posit32"])]
    width = max(max(len(target.name) for target in targets) + 1, 7)
    print(f"value:{'':{width - 5}s}{value!r}")
    for target in targets:
        bits = int(np.atleast_1d(target.to_bits(np.float64(value)))[0])
        stored = float(np.atleast_1d(target.from_bits(np.asarray([bits], dtype=target.dtype)))[0])
        hex_width = (target.nbits + 3) // 4
        print(f"{target.name}:{'':{width - len(target.name)}s}"
              f"{target.layout_string(bits)}  (0x{bits:0{hex_width}x})")
        if stored != value:
            print(f"{'':{width + 1}s}decodes to {stored!r}")
    return 0


def _cmd_verify(args) -> int:
    from repro.inject.results import TrialRecords
    from repro.inject.validate import verify_records

    records = TrialRecords.read_csv(args.log)
    report = verify_records(records, args.target)
    print(report.summary())
    for example in report.examples:
        print(f"  {example}")
    return 0 if report.ok else 1


def _cmd_predict(args) -> int:
    from repro.analysis.edgecases import FlipEvent
    from repro.analysis.predict import predict_flip as posit_predict
    from repro.formats import PositTarget, resolve
    from repro.reporting.series import Table
    from repro.reporting.tables import render_table

    value = float(args.value)
    targets = [resolve(spec) for spec in (args.target or ["ieee32", "posit32"])]
    columns = ["bit"]
    for target in targets:
        columns += [f"{target.name} faulty", f"{target.name} rel err"]
        if isinstance(target, PositTarget):
            columns.append(f"{target.name} event")
    table = Table(title=f"Predicted single-flip outcomes for {value!r}", columns=columns)

    stored = {}
    for target in targets:
        bits = int(np.atleast_1d(target.to_bits(np.float64(value)))[0])
        stored[target.name] = (
            bits,
            float(np.atleast_1d(target.from_bits(np.asarray([bits], dtype=target.dtype)))[0]),
        )
    for bit in range(max(t.nbits for t in targets) - 1, -1, -1):
        row = [bit]
        for target in targets:
            if bit >= target.nbits:
                row += ["-", "-"] + (["-"] if isinstance(target, PositTarget) else [])
                continue
            bits, base = stored[target.name]
            faulty = float(
                np.atleast_1d(
                    target.from_bits(np.asarray([bits ^ (1 << bit)], dtype=target.dtype))
                )[0]
            )
            rel = abs(base - faulty) / abs(base) if base != 0 else float("nan")
            row += [faulty, rel]
            if isinstance(target, PositTarget):
                pattern = np.asarray([bits], dtype=np.uint64)
                prediction = posit_predict(pattern, bit, target.config)
                row.append(FlipEvent(int(prediction.event[0])).name)
        table.add_row(row)
    print(render_table(table))
    return 0


def _add_app_options(parser) -> None:
    """The app-campaign flags shared by campaign run/submit/sweep."""
    parser.add_argument("--app", choices=("cg", "jacobi"), default=None,
                        help="application campaign: inject into live solver "
                        "state of this app instead of a dataset field")
    parser.add_argument("--grid", type=int, default=16,
                        help="Poisson grid side for --app (default: 16)")
    parser.add_argument("--inject-at", default="10",
                        help="comma-separated 1-based solver iterations to "
                        "inject at, e.g. 1,10,50 (default: 10)")
    parser.add_argument("--sdc-threshold", type=float, default=1e-3,
                        help="relative solution error above which a converged "
                        "run counts as silent data corruption (default: 1e-3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posit-resiliency",
        description="Posit vs IEEE-754 bit-flip resiliency study "
        "(reproduction of Schlueter et al., SC-W 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="summarize registered dataset fields")
    p.add_argument("--size", type=int, default=1 << 17)
    p.add_argument("--seed", type=int, default=2023)
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("targets", help="list injection targets / format specs")
    p.add_argument("--spec", action="append", default=[],
                   help="also describe this format spec (repeatable)")
    p.set_defaults(func=_cmd_targets)

    p = sub.add_parser("experiments", help="list experiments")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("experiment", help="run one experiment (or 'all')")
    p.add_argument("id")
    p.add_argument("--quick", action="store_true", help="CI-speed parameters")
    p.add_argument("--paper-scale", action="store_true", help="paper-sized run")
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=2023)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("campaign", help="run/resume/inspect a fault-injection campaign")
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    pr = campaign_sub.add_parser("run", help="run a campaign (optionally checkpointed)")
    pr.add_argument("field", nargs="?", default=None,
                    help="dataset field key, e.g. nyx/temperature (with "
                    "--app: the single positional is the format spec)")
    pr.add_argument("target", nargs="?", default=None,
                    help="injection target or format spec, "
                    "e.g. posit32, posit16es1, binary(8,23)")
    pr.add_argument("--size", type=int, default=1 << 17)
    pr.add_argument("--trials", type=int, default=None,
                    help="trials per shard (default: 313, or 3 per "
                    "(iteration, bit) cell with --app)")
    pr.add_argument("--seed", type=int, default=2023)
    _add_app_options(pr)
    pr.add_argument("--fault", default="single",
                    help="fault-model spec: single, adjacent(<k>), "
                    "random(<k>), burst(<k>,<p>), stuckat(<pos>,<v>) "
                    "(default: single)")
    pr.add_argument("--jobs", type=_jobs_arg, default=None,
                    help="worker processes (default: auto-size to CPUs)")
    pr.add_argument("--executor", choices=("serial", "pool", "work-stealing"),
                    default=None,
                    help="execution mechanism (default: serial or pool "
                    "chosen from --jobs); work-stealing requires --run-dir")
    pr.add_argument("--run-dir", default=None,
                    help="checkpoint directory (manifest + per-shard logs + events)")
    pr.add_argument("--resume", action="store_true",
                    help="continue an interrupted run in --run-dir")
    pr.add_argument("--progress", action="store_true",
                    help="render live shard progress")
    pr.add_argument("--profile", action="store_true",
                    help="collect span/counter telemetry (writes "
                    "telemetry.json into --run-dir)")
    pr.add_argument("--trace", action="store_true",
                    help="distributed tracing: write trace spans and metrics "
                    "time-series into --run-dir (trace/, metrics/)")
    pr.add_argument("--out", default=None, help="write trial CSV here")
    pr.set_defaults(func=_cmd_campaign_run)

    pres = campaign_sub.add_parser(
        "resume", help="resume an interrupted run from its directory"
    )
    pres.add_argument("run_dir", help="run directory with a manifest.json")
    pres.add_argument("--fault", default=None,
                      help="assert the run's fault model (errors if it "
                      "differs from the manifest; the model itself always "
                      "comes from the manifest)")
    pres.add_argument("--jobs", type=_jobs_arg, default=None,
                      help="worker processes (default: auto-size to CPUs)")
    pres.add_argument("--executor", choices=("serial", "pool", "work-stealing"),
                      default=None,
                      help="execution mechanism (default: serial or pool "
                      "chosen from --jobs)")
    pres.add_argument("--progress", action="store_true",
                      help="render live shard progress")
    pres.add_argument("--profile", action="store_true",
                      help="collect span/counter telemetry for the resumed "
                      "shards (writes telemetry.json into the run directory)")
    pres.add_argument("--trace", action="store_true",
                      help="distributed tracing for the resumed shards "
                      "(also re-enabled automatically when the run was "
                      "submitted with --trace)")
    pres.add_argument("--out", default=None, help="write trial CSV here")
    pres.set_defaults(func=_cmd_campaign_resume)

    pst = campaign_sub.add_parser("status", help="summarize a run directory")
    pst.add_argument("run_dir", help="run directory with a manifest.json")
    pst.add_argument("--json", action="store_true",
                     help="emit the canonical repro.run-status/1 JSON payload "
                     "(same schema as `campaign get --json`)")
    pst.set_defaults(func=_cmd_campaign_status)

    psub = campaign_sub.add_parser(
        "submit",
        help="register a campaign in submitted state (no execution); "
        "`campaign worker` processes then claim its shards via leases",
    )
    psub.add_argument("field", nargs="?", default=None,
                      help="dataset field key, e.g. nyx/temperature (with "
                      "--app: the single positional is the format spec)")
    psub.add_argument("target", nargs="?", default=None,
                      help="injection target or format spec")
    psub.add_argument("--size", type=int, default=1 << 17)
    psub.add_argument("--trials", type=int, default=None,
                      help="trials per shard (default: 313, or 3 per "
                      "(iteration, bit) cell with --app)")
    psub.add_argument("--seed", type=int, default=2023)
    _add_app_options(psub)
    psub.add_argument("--bits", type=int, default=None,
                      help="only the lowest N bit positions (default: all)")
    psub.add_argument("--fault", default="single",
                      help="fault-model spec: single, adjacent(<k>), "
                      "random(<k>), burst(<k>,<p>), stuckat(<pos>,<v>) "
                      "(default: single)")
    psub.add_argument("--label", default=None, help="free-text label (default: field)")
    psub.add_argument("--project", default="default",
                      help="registry project scope (default: 'default')")
    psub.add_argument("--trace", action="store_true",
                      help="record distributed tracing in the manifest so "
                      "every worker writes trace spans + metrics series")
    psub.add_argument("--json", action="store_true",
                      help="emit the registry entry as JSON")
    psub.set_defaults(func=_cmd_campaign_submit)

    psw = campaign_sub.add_parser(
        "sweep",
        help="submit one run per (format x fault model) cell; workers "
        "then claim shards from every cell through leases",
    )
    psw.add_argument("field", nargs="?", default=None,
                     help="dataset field key, e.g. nyx/temperature "
                     "(omit with --app)")
    psw.add_argument("--formats", required=True,
                     help="comma-separated format specs, e.g. posit32,ieee32")
    psw.add_argument("--faults", default="single",
                     help="comma-separated fault-model specs, e.g. "
                     "single,adjacent(2),random(3) (default: single)")
    psw.add_argument("--size", type=int, default=1 << 17)
    psw.add_argument("--trials", type=int, default=None,
                     help="trials per shard (default: 313, or 3 per "
                     "(iteration, bit) cell with --app)")
    psw.add_argument("--seed", type=int, default=2023)
    _add_app_options(psw)
    psw.add_argument("--bits", type=int, default=None,
                     help="only the lowest N bit positions (default: all)")
    psw.add_argument("--project", default="default",
                     help="registry project scope (default: 'default')")
    psw.add_argument("--trace", action="store_true",
                     help="record distributed tracing in every cell's manifest")
    psw.add_argument("--json", action="store_true",
                     help="emit the submitted registry entries as JSON")
    psw.set_defaults(func=_cmd_campaign_sweep)

    plist = campaign_sub.add_parser("list", help="list registered runs")
    plist.add_argument("--project", default=None, help="filter by project")
    plist.add_argument("--json", action="store_true",
                       help="emit registry entries as JSON")
    plist.set_defaults(func=_cmd_campaign_list)

    pget = campaign_sub.add_parser(
        "get", help="state of one registered run (by id or run directory)"
    )
    pget.add_argument("run", help="registry run id or run directory path")
    pget.add_argument("--json", action="store_true",
                      help="emit the canonical repro.run-status/1 JSON payload")
    pget.set_defaults(func=_cmd_campaign_get)

    pw = campaign_sub.add_parser(
        "watch", help="stream a run's event feed (tails events.jsonl)"
    )
    pw.add_argument("run", help="registry run id or run directory path")
    pw.add_argument("--until-done", action="store_true",
                    help="keep following until the run completes or is cancelled")
    pw.add_argument("--timeout", type=float, default=None,
                    help="give up after this many seconds of event silence")
    pw.add_argument("--poll-interval", type=float, default=0.25,
                    help=argparse.SUPPRESS)
    pw.add_argument("--no-follow", action="store_true",
                    help="print the feed so far and exit")
    pw.add_argument("--json", action="store_true",
                    help="one JSON object per line: raw events plus "
                    "watch_throughput / watch_stall / watch_done records")
    pw.add_argument("--stall-after", type=float, default=None,
                    help="warn when no progress event lands for this many "
                    "seconds (default: 30 with --until-done, else off)")
    pw.set_defaults(func=_cmd_campaign_watch)

    pcan = campaign_sub.add_parser(
        "cancel", help="request cooperative cancellation of a run"
    )
    pcan.add_argument("run", help="registry run id or run directory path")
    pcan.add_argument("--reason", default="", help="recorded in the sentinel file")
    pcan.set_defaults(func=_cmd_campaign_cancel)

    pwk = campaign_sub.add_parser(
        "worker",
        help="work-stealing worker: claim pending shards of a submitted run "
        "through lease files (run any number, on any machine sharing the "
        "filesystem)",
    )
    pwk.add_argument("run", help="registry run id or run directory path")
    pwk.add_argument("--worker-id", default=None,
                     help="identity recorded in leases/events "
                     "(default: <hostname>-<pid>)")
    pwk.add_argument("--lease-timeout", type=float, default=30.0,
                     help="seconds after which an unrefreshed lease is stolen")
    pwk.add_argument("--poll-interval", type=float, default=0.2,
                     help=argparse.SUPPRESS)
    pwk.add_argument("--max-claims", type=int, default=None,
                     help="exit after computing this many shards")
    pwk.add_argument("--max-idle", type=float, default=None,
                     help="exit after this many seconds without progress")
    pwk.add_argument("--profile", action="store_true",
                     help="collect span/counter telemetry for this worker's "
                     "shards (written beside the done records and merged "
                     "into run-level reports)")
    pwk.add_argument("--trace", action="store_true",
                     help="distributed tracing for this worker (also enabled "
                     "automatically when the run was submitted with --trace)")
    pwk.set_defaults(func=_cmd_campaign_worker)

    pvf = campaign_sub.add_parser(
        "verify",
        help="audit a run directory: manifest, shard checksums, events, telemetry",
    )
    pvf.add_argument("run_dir", help="run directory with a manifest.json")
    pvf.set_defaults(func=_cmd_campaign_verify)

    ptop = campaign_sub.add_parser(
        "top",
        help="live fleet view: per-worker throughput, leases, stragglers "
        "(refreshes in place until the run completes)",
    )
    ptop.add_argument("run", help="registry run id or run directory path")
    ptop.add_argument("--refresh", type=float, default=2.0,
                      help="seconds between frames (default: 2)")
    ptop.add_argument("--once", action="store_true",
                      help="render one frame and exit")
    ptop.add_argument("--json", action="store_true",
                      help="emit one repro.fleet-snapshot/1 JSON document "
                      "and exit (implies --once)")
    ptop.add_argument("--straggler-factor", type=float, default=2.0,
                      help="flag shards slower than this multiple of the "
                      "median duration (and above p95; default: 2)")
    ptop.add_argument("--stall-after", type=float, default=30.0,
                      help="mark the run stalled after this many seconds "
                      "without a progress event (default: 30)")
    ptop.set_defaults(func=_cmd_campaign_top)

    ptrace = campaign_sub.add_parser(
        "trace", help="work with a traced run's span records"
    )
    trace_sub = ptrace.add_subparsers(dest="trace_command", required=True)
    pte = trace_sub.add_parser(
        "export",
        help="fold trace/*.jsonl into one Chrome trace-event JSON file "
        "(chrome://tracing / Perfetto)",
    )
    pte.add_argument("run", help="registry run id or run directory path")
    pte.add_argument("--out", default=None,
                     help="output path (default: <run-dir>/trace/chrome-trace.json)")
    pte.set_defaults(func=_cmd_campaign_trace_export)

    pmet = campaign_sub.add_parser(
        "metrics",
        help="fold metrics/*.jsonl time-series into run-level output",
    )
    pmet.add_argument("run", help="registry run id or run directory path")
    pmet.add_argument("--format", choices=("json", "prometheus"), default="json",
                      help="json: per-worker + aggregated series; prometheus: "
                      "latest gauges as a textfile-collector exposition")
    pmet.add_argument("--out", default=None,
                      help="write here instead of stdout")
    pmet.set_defaults(func=_cmd_campaign_metrics)

    p = sub.add_parser("telemetry", help="inspect a profiled run's telemetry")
    telemetry_sub = p.add_subparsers(dest="telemetry_command", required=True)
    ptr = telemetry_sub.add_parser(
        "report", help="render a run directory's events + telemetry"
    )
    ptr.add_argument("run_dir", help="run directory (manifest.json [+ telemetry.json])")
    ptr.add_argument("--format", choices=("markdown", "prometheus", "json"),
                     default="markdown",
                     help="markdown joins events with telemetry; prometheus/json "
                     "render the raw snapshot")
    ptr.add_argument("--out", default=None, help="write the report here "
                     "instead of stdout")
    ptr.set_defaults(func=_cmd_telemetry_report)

    p = sub.add_parser(
        "conformance",
        help="differential/metamorphic oracle over codecs, metrics, and goldens",
    )
    conformance_sub = p.add_subparsers(dest="conformance_command", required=True)

    pcr = conformance_sub.add_parser(
        "run", help="run the oracle (exit 0 clean / 1 errors / 2 warnings)"
    )
    pcr.add_argument("--level", choices=("smoke", "full"), default="smoke",
                     help="smoke: seeded samples; full: exhaustive <=16-bit lattices")
    pcr.add_argument("--format", action="append", default=None,
                     help="format spec to gate (repeatable; default: the paper roster)")
    pcr.add_argument("--golden-dir", default=None,
                     help="golden fixture directory (default tests/golden, "
                     "or $REPRO_GOLDEN_DIR)")
    pcr.add_argument("--seed", type=int, default=None,
                     help="root sampling seed (default: the oracle seed)")
    pcr.add_argument("--out", default=None,
                     help="also write the findings report to this file")
    pcr.set_defaults(func=_cmd_conformance_run)

    pcb = conformance_sub.add_parser(
        "bless", help="(re)generate the golden fixtures from the current tree"
    )
    pcb.add_argument("--format", action="append", default=None,
                     help="only refresh fixtures for this format (repeatable)")
    pcb.add_argument("--golden-dir", default=None,
                     help="golden fixture directory (default tests/golden)")
    pcb.set_defaults(func=_cmd_conformance_bless)

    p = sub.add_parser("suite", help="run the full (fields x targets) campaign grid")
    p.add_argument("--out", default="suite-results")
    p.add_argument("--fields", default=None, help="comma-separated keys (default: all)")
    p.add_argument("--size", type=int, default=1 << 17)
    p.add_argument("--trials", type=int, default=313)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--jobs", type=_jobs_arg, default=None,
                   help="worker processes per campaign (default: auto-size to CPUs)")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("report", help="write the full reproduction report")
    p.add_argument("--out", default="report")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--paper-scale", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("inspect", help="show a value's representations")
    p.add_argument("value")
    p.add_argument("--target", action="append", default=None,
                   help="format spec to render (repeatable; default ieee32 + posit32)")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("predict", help="predicted per-bit flip outcomes for a value")
    p.add_argument("value")
    p.add_argument("--target", action="append", default=None,
                   help="format spec to predict (repeatable; default ieee32 + posit32)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "config", help="manage the service home ($REPRO_HOME, default ~/.repro)"
    )
    config_sub = p.add_subparsers(dest="config_command", required=True)
    pci = config_sub.add_parser(
        "init", help="create the home directory layout and config.json"
    )
    pci.add_argument("--home", default=None,
                     help="home directory (default: $REPRO_HOME or ~/.repro)")
    pci.add_argument("--force", action="store_true",
                     help="rewrite config.json even if it exists")
    pci.set_defaults(func=_cmd_config_init)
    pcs = config_sub.add_parser("show", help="print the resolved service paths")
    pcs.add_argument("--home", default=None,
                     help="home directory (default: $REPRO_HOME or ~/.repro)")
    pcs.set_defaults(func=_cmd_config_show)

    p = sub.add_parser("verify", help="re-derive a trial log and check integrity")
    p.add_argument("log", help="trial CSV written by a campaign")
    p.add_argument("target", help="the target the log claims, e.g. posit32")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    # The legacy `campaign FIELD TARGET` shorthand (deprecated since the
    # subcommand split) is gone: `campaign run FIELD TARGET` is the form.
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
