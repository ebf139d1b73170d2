"""Command-line interface: ``python -m repro``.

Subcommands:

* ``repro list-backends`` — the registered devices and their capabilities.
* ``repro run --backend centaur --model DLRM3 --batch 64`` — price one
  design point and print its latency/energy summary.
* ``repro sweep --backends cpu centaur --models DLRM1 DLRM4 --batches 1 64``
  — run an experiment grid and print (or export) the results.
* ``repro list-workloads`` — the arrival processes and trace models the
  workload subsystem can build from compact specs.
* ``repro serve --backend centaur --model DLRM2 --workload bursty:on=40000
  --requests 20000`` — stream a workload through the event-driven serving
  simulator and print the tail-latency report.  Add ``--autoscale
  util:target=0.7`` to serve on an elastic fleet and print its
  replica-count/attainment timeline.
* ``repro plan --model DLRM2 --workload diurnal:trough=5000,peak=40000
  --duration 0.5 --sla 0.005`` — search the minimal fleet per backend that
  meets a p99 SLA target for the workload.

Models accept Table I shorthand: ``DLRM3``, ``DLRM(3)`` and ``3`` all name
the third configuration.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.backends import available_backends, backend_registration, get_backend
from repro.config.models import DLRMConfig
from repro.config.presets import HARPV2_SYSTEM, PAPER_BATCH_SIZES, PAPER_MODELS, dlrm_preset
from repro.errors import ReproError
from repro.experiment import Experiment
from repro.utils.tables import TextTable
from repro.utils.units import seconds_to_human


def _progress_printer(enabled: bool):
    """A grid-progress callback logging to stderr (or ``None`` when off).

    Progress goes to stderr so rendered tables/CSV on stdout stay
    byte-identical with and without ``--progress``.
    """
    if not enabled:
        return None

    def emit(line: str) -> None:
        print(line, file=sys.stderr)

    return emit


def parse_model(which: str) -> DLRMConfig:
    """Resolve ``DLRM3`` / ``DLRM(3)`` / ``3`` to a Table I preset."""
    text = which.strip()
    candidate = text.upper().replace("DLRM", "").strip("()")
    if candidate.isdigit():
        return dlrm_preset(int(candidate))
    return dlrm_preset(text)


def _cmd_list_backends(args: argparse.Namespace) -> int:
    table = TextTable(
        ["name", "design point", "accelerator", "offloads EMB", "description"],
        title="Registered backends",
    )
    for name in available_backends():
        registration = backend_registration(name)
        capabilities = registration.capabilities
        table.add_row(
            [
                name,
                registration.design_point,
                "yes" if capabilities.uses_accelerator else "no",
                "yes" if capabilities.offloads_embeddings else "no",
                registration.description,
            ]
        )
    print(table.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    model = parse_model(args.model)
    backend = get_backend(args.backend, HARPV2_SYSTEM)
    result = backend.run(model, args.batch)

    print(
        f"{result.design_point} | {result.model_name} | batch {result.batch_size}"
    )
    table = TextTable(["stage", "latency", "share %"], title="Latency breakdown")
    for stage, seconds in result.breakdown.stages.items():
        table.add_row(
            [stage, seconds_to_human(seconds), 100.0 * result.breakdown.fraction(stage)]
        )
    print(table.render())
    print(f"end-to-end latency : {seconds_to_human(result.latency_seconds)}")
    print(f"throughput         : {result.throughput_samples_per_second:,.0f} samples/s")
    print(f"power              : {result.power_watts:.1f} W")
    print(f"energy / batch     : {result.energy_joules * 1e3:.3f} mJ")
    print(f"energy / sample    : {result.energy_per_sample_joules * 1e3:.3f} mJ")
    if args.baseline:
        baseline = get_backend(args.baseline, HARPV2_SYSTEM).run(model, args.batch)
        print(
            f"vs {baseline.design_point:<15}: "
            f"{result.speedup_over(baseline):.2f}x speedup, "
            f"{result.energy_efficiency_over(baseline):.2f}x energy efficiency"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    backends = args.backends if args.backends else list(available_backends())
    models = (
        tuple(parse_model(name) for name in args.models)
        if args.models
        else PAPER_MODELS
    )
    batches = tuple(args.batches) if args.batches else PAPER_BATCH_SIZES
    grid = (
        Experiment(HARPV2_SYSTEM)
        .backends(*backends)
        .models(models)
        .batch_sizes(batches)
        .jobs(args.jobs)
        .progress(_progress_printer(args.progress))
        .run()
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(grid.to_csv())
        print(f"wrote {len(grid)} design points to {args.csv}")
        return 0
    from repro.analysis.report import render_experiment

    print(render_experiment(grid))
    return 0


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_workload_catalog
    from repro.workloads.catalog import SCENARIO_CATALOG, UPDATE_SCENARIO_CATALOG

    print(render_workload_catalog())
    scenarios = TextTable(
        ["name", "summary", "fault spec"],
        title="Workload catalog: chaos scenarios",
    )
    for entry in SCENARIO_CATALOG.values():
        scenarios.add_row([entry.name, entry.summary, entry.fault_spec])
    print()
    print(scenarios.render())
    pushes = TextTable(
        ["name", "summary", "update spec"],
        title="Workload catalog: update scenarios",
    )
    for entry in UPDATE_SCENARIO_CATALOG.values():
        pushes.add_row([entry.name, entry.summary, entry.update_spec])
    print()
    print(pushes.render())
    print(
        "\nCompose specs with `repro serve --workload <arrival spec> "
        "--trace <trace spec>`; add `--faults <scenario|spec>` for a "
        "resilience drill or `--updates <scenario|spec>` for an "
        "embedding-push stream."
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        render_autoscale_timeline,
        render_freshness_report,
        render_incident_timeline,
        render_profile,
        render_serving_comparison,
        render_sharding_report,
    )
    from repro.experiment.executor import resolve_jobs
    from repro.serving.autoscale import parse_autoscaler_spec
    from repro.serving.batching import TimeoutBatching
    from repro.serving.fleet import FleetSpec
    from repro.sharding import parse_cache_spec, parse_sharding_spec
    from repro.workloads.catalog import (
        SCENARIO_CATALOG,
        UPDATE_SCENARIO_CATALOG,
        parse_arrival_spec,
        parse_trace_spec,
        resolve_fault_spec,
        resolve_update_spec,
    )
    from repro.workloads.workload import Workload

    if (args.duration is None) == (args.requests is None):
        print("error: provide exactly one of --duration / --requests", file=sys.stderr)
        return 2
    if resolve_jobs(args.jobs) > 1:
        print(
            "note: serve evaluates one (backend, workload) point; --jobs "
            "parallelizes event-driven grids (plan, Experiment.serve), so this "
            "run is serial",
            file=sys.stderr,
        )
    progress = _progress_printer(args.progress)
    faults = resolve_fault_spec(args.faults)
    for catalog, spec, kind in (
        (SCENARIO_CATALOG, args.faults, "chaos"),
        (UPDATE_SCENARIO_CATALOG, args.updates, "update"),
    ):
        scenario = catalog.get(spec.strip().lower()) if spec is not None else None
        if scenario is not None:
            print(f"{kind} scenario '{scenario.name}': {scenario.summary}")
    workload = Workload(
        arrivals=parse_arrival_spec(args.workload),
        trace=parse_trace_spec(args.trace),
    )
    model = parse_model(args.model)
    num_shards, strategy = parse_sharding_spec(args.shards)
    elastic_flags = [
        flag
        for flag, value in (
            ("--min-replicas", args.min_replicas),
            ("--max-replicas", args.max_replicas),
            ("--control-interval", args.control_interval),
        )
        if value is not None
    ]
    if args.autoscale is not None:
        policy = parse_autoscaler_spec(args.autoscale)
        # --replicas sizes the fleet at time zero; left at its default of 1
        # the elastic fleet starts at the --min-replicas floor.
        sizing = dict(
            min_replicas=1 if args.min_replicas is None else args.min_replicas,
            max_replicas=8 if args.max_replicas is None else args.max_replicas,
            control_interval_s=(
                10e-3 if args.control_interval is None else args.control_interval
            ),
        )
    elif elastic_flags:
        print(
            f"error: {'/'.join(elastic_flags)} size an autoscaled fleet and need "
            "--autoscale; a static fleet is sized by --replicas",
            file=sys.stderr,
        )
        return 2
    else:
        # Under faults a static fleet is a policy-less elastic one of
        # exactly --replicas (bit-identical to the static path when the
        # schedule is empty).
        policy = None
        sizing = dict(max_replicas=args.replicas)
    fleet = FleetSpec(
        replicas=args.replicas,
        batching=TimeoutBatching(window_s=args.window, max_batch_size=args.max_batch),
        policy=policy,
        warmup_s=args.warmup,
        shards=num_shards if num_shards > 1 else None,
        strategy=strategy,
        cache=parse_cache_spec(args.cache),
        shared_cache=parse_cache_spec(args.shared_cache),
        updates=resolve_update_spec(args.updates),
        profile=args.profile,
        **sizing,
    )
    if fleet.sharded and (policy is not None or args.replicas > 1):
        print(
            "error: --shards/--cache/--updates/--shared-cache serve one "
            "sharded group; drop --autoscale/--replicas",
            file=sys.stderr,
        )
        return 2
    fleet.check(args.backend, [workload], faults)
    simulator = fleet.build(args.backend, model, HARPV2_SYSTEM)
    report = simulator.serve_workload(
        workload,
        duration_s=args.duration,
        num_requests=args.requests,
        seed=args.seed,
        faults=faults,
    )
    if progress is not None:
        progress(f"[1/1] {args.backend} {workload.name} {model.name} served")
    print(f"workload: {workload.describe()}")
    design_point = simulator.design_point
    if fleet.sharded:
        cache = fleet.cache.describe() if fleet.cache is not None else "off"
        reports = {f"{design_point} x{num_shards} {strategy} shards, cache {cache}": report}
        print(
            render_sharding_report(
                reports,
                sla_s=args.sla,
                title=f"Sharded serving of {model.name} under {workload.name}",
            )
        )
        if fleet.updates is not None or fleet.shared_cache is not None:
            print()
            print(
                render_freshness_report(
                    reports,
                    sla_s=args.sla,
                    title=f"Cache freshness of {model.name} under {workload.name}",
                )
            )
    else:
        if workload.trace.kind != "uniform":
            print(
                "note: the trace model shapes functional batches and cache studies; "
                "serving latency is priced at the device model's uniform "
                "(pessimal-locality) calibration, an upper bound under skew."
            )
        if policy is not None:
            label = f"{design_point} autoscaled ({policy.name})"
        elif faults is not None:
            label = f"{design_point} x{args.replicas} (chaos)"
        else:
            label = f"{design_point} x{args.replicas}"
        print(
            render_serving_comparison(
                {label: report},
                sla_s=args.sla,
                title=f"Serving {model.name} under {workload.name}",
            )
        )
        if policy is not None:
            print()
            print(render_autoscale_timeline(report, sla_s=args.sla))
    if getattr(report, "incidents", None) is not None:
        print()
        print(render_incident_timeline(report))
    if simulator.last_profile is not None:
        print()
        print(render_profile(simulator.last_profile))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_capacity_plan
    from repro.serving.batching import TimeoutBatching
    from repro.serving.planner import CapacityPlanner
    from repro.workloads.catalog import parse_arrival_spec, parse_trace_spec
    from repro.workloads.workload import Workload

    if (args.duration is None) == (args.requests is None):
        print("error: provide exactly one of --duration / --requests", file=sys.stderr)
        return 2
    workload = Workload(
        arrivals=parse_arrival_spec(args.workload),
        trace=parse_trace_spec(args.trace),
    )
    model = parse_model(args.model)
    backends = args.backends if args.backends else list(available_backends())
    planner = CapacityPlanner(
        HARPV2_SYSTEM,
        sla_s=args.sla,
        target_attainment=args.attainment,
        max_replicas=args.max_replicas,
        batching=TimeoutBatching(window_s=args.window, max_batch_size=args.max_batch),
        seed=args.seed,
        jobs=args.jobs,
    )
    plan = planner.plan(
        workload,
        model,
        backends=backends,
        duration_s=args.duration,
        num_requests=args.requests,
    )
    print(f"workload: {workload.describe()}")
    print(render_capacity_plan(plan))
    return 0 if plan.best() is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Centaur reproduction: backends, experiments and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-backends", help="list registered device backends"
    )
    list_parser.set_defaults(handler=_cmd_list_backends)

    run_parser = subparsers.add_parser(
        "run", help="price one (backend, model, batch) design point"
    )
    run_parser.add_argument("--backend", required=True, help="registry name, e.g. centaur")
    run_parser.add_argument("--model", required=True, help="Table I model, e.g. DLRM3")
    run_parser.add_argument("--batch", type=int, default=64, help="batch size (default 64)")
    run_parser.add_argument(
        "--baseline",
        default="cpu",
        help="backend to compare against (default cpu; empty string disables)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run an experiment grid over backends x models x batches"
    )
    sweep_parser.add_argument(
        "--backends", nargs="+", default=None, help="registry names (default: all)"
    )
    sweep_parser.add_argument(
        "--models", nargs="+", default=None, help="Table I models (default: all six)"
    )
    sweep_parser.add_argument(
        "--batches", nargs="+", type=int, default=None, help="batch sizes (default: 1-128)"
    )
    sweep_parser.add_argument("--csv", default=None, help="write the grid to a CSV file")
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "accepted for symmetry with serve and plan (0 = all CPUs); a "
            "sweep always prices in-process, so output is identical at any "
            "setting"
        ),
    )
    sweep_parser.add_argument(
        "--progress",
        action="store_true",
        help="log each grid point (n/total, cached vs computed) to stderr",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    workloads_parser = subparsers.add_parser(
        "list-workloads", help="list the arrival processes and trace models"
    )
    workloads_parser.set_defaults(handler=_cmd_list_workloads)

    serve_parser = subparsers.add_parser(
        "serve", help="stream a workload through the serving simulator"
    )
    serve_parser.add_argument("--backend", required=True, help="registry name, e.g. centaur")
    serve_parser.add_argument("--model", required=True, help="Table I model, e.g. DLRM2")
    serve_parser.add_argument(
        "--workload",
        default="poisson:20000",
        help="arrival spec (see list-workloads), e.g. bursty:on=40000,off=2000",
    )
    serve_parser.add_argument(
        "--trace", default="uniform", help="trace spec, e.g. zipf:1.05 (default uniform)"
    )
    serve_parser.add_argument(
        "--requests", type=int, default=None, help="serve exactly this many requests"
    )
    serve_parser.add_argument(
        "--duration", type=float, default=None, help="serve this many simulated seconds"
    )
    serve_parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help=(
            "identical replicas behind the dispatcher; with --autoscale this "
            "is the fleet size at time zero (default: the --min-replicas floor)"
        ),
    )
    serve_parser.add_argument(
        "--shards",
        default="1",
        metavar="SPEC",
        help=(
            "partition the model's embedding tables: a shard count or a "
            "'<count>:<strategy>' spec, e.g. 4 or 4:row (default 1)"
        ),
    )
    serve_parser.add_argument(
        "--cache",
        default=None,
        metavar="SPEC",
        help=(
            "hot-row cache in front of every shard's gather, e.g. "
            "lru:rows=4096 or lfu:bytes=1048576 (default off)"
        ),
    )
    serve_parser.add_argument(
        "--updates",
        default=None,
        metavar="SPEC",
        help=(
            "embedding update stream pushed into serving: a named scenario "
            "from list-workloads (e.g. model-push-storm) or "
            "MODE:rate=R,rows=K[,trace=zipf:1.05] with MODE one of "
            "invalidate / write-through / ignore (default off)"
        ),
    )
    serve_parser.add_argument(
        "--shared-cache",
        default=None,
        metavar="SPEC",
        help=(
            "shared second cache tier across shards, priced over the "
            "system link; same spec grammar as --cache (default off)"
        ),
    )
    serve_parser.add_argument(
        "--window", type=float, default=1e-3, help="batching window in seconds"
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=64, help="batching size cap"
    )
    serve_parser.add_argument(
        "--sla", type=float, default=5e-3, help="SLA budget in seconds for attainment"
    )
    serve_parser.add_argument("--seed", type=int, default=0, help="workload stream seed")
    serve_parser.add_argument(
        "--autoscale",
        default=None,
        metavar="SPEC",
        help=(
            "serve on an elastic fleet driven by an autoscaler spec, e.g. "
            "util:target=0.7 / queue:high=8,low=1 / ewma:rate=20000 / "
            "schedule:0=1,0.5=4"
        ),
    )
    serve_parser.add_argument(
        "--min-replicas",
        type=int,
        default=None,
        help="autoscaling floor; needs --autoscale (default 1)",
    )
    serve_parser.add_argument(
        "--max-replicas",
        type=int,
        default=None,
        help="autoscaling ceiling; needs --autoscale (default 8)",
    )
    serve_parser.add_argument(
        "--control-interval",
        type=float,
        default=None,
        help="autoscaler control tick in seconds; needs --autoscale (default 0.01)",
    )
    serve_parser.add_argument(
        "--warmup",
        type=float,
        default=None,
        help="replica warm-up in seconds (default: the backend's registered hint)",
    )
    serve_parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault schedule: a named scenario from "
            "list-workloads (e.g. region-failover) or a ;-separated spec, "
            "e.g. 'crash:at=0.05,restart=0.02;report:sla=0.005' "
            "(kinds: crash, shard-loss, link, brownout, poisson, report)"
        ),
    )
    serve_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-event-label engine profile after the serving table",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for grid evaluation (0 = all CPUs); serve "
            "runs one point, so this is accepted for symmetry and noted"
        ),
    )
    serve_parser.add_argument(
        "--progress",
        action="store_true",
        help="log point completion to stderr (never alters the report)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    plan_parser = subparsers.add_parser(
        "plan", help="search the minimal fleet meeting a p99 SLA per backend"
    )
    plan_parser.add_argument(
        "--backends", nargs="+", default=None, help="registry names (default: all)"
    )
    plan_parser.add_argument("--model", required=True, help="Table I model, e.g. DLRM2")
    plan_parser.add_argument(
        "--workload",
        default="poisson:20000",
        help="arrival spec (see list-workloads)",
    )
    plan_parser.add_argument(
        "--trace", default="uniform", help="trace spec (default uniform)"
    )
    plan_parser.add_argument(
        "--requests", type=int, default=None, help="plan against this many requests"
    )
    plan_parser.add_argument(
        "--duration", type=float, default=None, help="plan against this many seconds"
    )
    plan_parser.add_argument(
        "--sla", type=float, default=5e-3, help="SLA budget in seconds (default 5ms)"
    )
    plan_parser.add_argument(
        "--attainment",
        type=float,
        default=0.99,
        help="fraction of requests that must meet the SLA (default 0.99)",
    )
    plan_parser.add_argument(
        "--max-replicas", type=int, default=64, help="search ceiling (default 64)"
    )
    plan_parser.add_argument(
        "--window", type=float, default=1e-3, help="batching window in seconds"
    )
    plan_parser.add_argument(
        "--max-batch", type=int, default=64, help="batching size cap"
    )
    plan_parser.add_argument("--seed", type=int, default=0, help="workload stream seed")
    plan_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes searching backends in parallel (0 = all "
            "CPUs); each backend's search stays sequential"
        ),
    )
    plan_parser.set_defaults(handler=_cmd_plan)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except (ReproError, KeyError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
