"""``repro-paper`` command-line interface.

This is the only command-line path into the experiments and the
service (``python -m repro.cli`` without an install).  Subcommands map
one-to-one to the paper's evaluation artifacts:

    repro-paper list                       # applications in the registry
    repro-paper run APP [options]          # one measured execution
    repro-paper table1                     # Table I
    repro-paper table2 / table3            # Tables II / III
    repro-paper figure fig1..fig4          # Figures 1-4
    repro-paper throttle [APP]             # Tables IV-VII
    repro-paper sensitivity [APP]          # policy-threshold sweep
    repro-paper faultsweep                 # robustness: savings under faults
    repro-paper metersweep                 # meter backends x cadence x faults
    repro-paper sched [options]            # one scheduled cluster run
    repro-paper schedsweep                 # placement policy x budget table
    repro-paper coschedsweep               # contention profiling sweep
    repro-paper validate [--differential]  # physics-invariant sanitizer sweep
    repro-paper coldstart                  # footnote 2
    repro-paper reproduce [-o FILE]        # full EXPERIMENTS.md
    repro-paper cache info|clear           # the harness result cache
    repro-paper recalibrate                # refresh residual corrections
    repro-paper serve [options]            # always-on experiment service
    repro-paper submit APP [options]       # send one spec to the service
    repro-paper obs report [options]       # live service metrics + spans

Every sweep command accepts the shared harness flags: ``--workers N``
(process-parallel execution), ``--no-cache`` / ``--cache-dir DIR``
(digest-keyed result cache), ``--events FILE`` (JSONL telemetry log),
``--metrics FILE`` / ``--trace FILE`` (obs snapshot, Chrome trace) and
``--quiet`` (suppress the progress renderer).  List flags take
comma-separated values.  A bad flag value is a usage error and any
:class:`~repro.errors.ReproError` a command raises is reported as
``repro-paper CMD: error: ...``; both exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, Callable, Iterator, Optional

from repro.apps import APP_REGISTRY, list_apps


# ----------------------------------------------------------------- harness
def _csv(item_type: Callable[[str], Any]) -> Callable[[str], tuple]:
    """argparse type for a comma-separated list flag: a tuple of ``item_type``.

    A bad item fails as a usage error, before anything runs.
    """
    def parse(text: str) -> tuple:
        try:
            return tuple(item_type(item) for item in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"invalid comma-separated list {text!r}: {exc}") from exc

    return parse


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """The harness flags shared by every sweep subcommand."""
    group = parser.add_argument_group("harness")
    group.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (default: 1, serial)")
    group.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache root (default: ~/.cache/repro-harness "
                            "or $REPRO_CACHE_DIR)")
    group.add_argument("--events", default=None, metavar="FILE",
                       help="append structured telemetry events to FILE (JSONL)")
    group.add_argument("--quiet", action="store_true",
                       help="suppress the per-run progress renderer")
    group.add_argument("--metrics", default=None, metavar="FILE",
                       help="dump a repro.obs metrics snapshot (JSON) to FILE "
                            "when the sweep finishes")
    group.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome-trace (about:tracing / Perfetto) "
                            "JSON of the sweep's runs to FILE")


@contextlib.contextmanager
def _telemetry(
    args: argparse.Namespace,
    progress: Optional[Callable[[], Any]] = None,
    *,
    trace_clock: Optional[Callable[[], float]] = None,
) -> Iterator[tuple]:
    """The telemetry a command's ``--quiet``/``--events``/``--metrics``/
    ``--trace`` flags ask for, as ``(bus, registry, tracer)``.

    ``progress`` builds the stderr narrator (default: the harness
    :class:`ProgressSink`).  ``trace_clock`` replaces the tracer's wall
    clock.  The JSONL log is closed and the metrics snapshot and
    Chrome trace are written when the block exits.
    """
    from repro.harness import JsonlSink, ProgressSink, TelemetryBus

    bus = TelemetryBus()
    if not args.quiet:
        bus.subscribe((progress or ProgressSink)())
    jsonl = None
    if getattr(args, "events", None):
        jsonl = JsonlSink(args.events)
        bus.subscribe(jsonl)
    # Observability is strictly opt-in from the CLI: no registry object
    # even exists unless a flag asks for one, so the default path stays
    # instrumentation-free.
    registry = tracer = None
    if getattr(args, "metrics", None):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    if getattr(args, "trace", None):
        from repro.obs import SpanRecorder

        tracer = SpanRecorder(clock=trace_clock)
    try:
        yield bus, registry, tracer
    finally:
        if jsonl is not None:
            jsonl.close()
        if registry is not None:
            _dump_metrics(registry, args.metrics)
        if tracer is not None:
            _dump_trace(tracer, args.trace)


@contextlib.contextmanager
def _make_harness(args: argparse.Namespace) -> Iterator["BatchExecutor"]:
    """Build the BatchExecutor an argparse namespace describes."""
    from repro.harness import BatchExecutor, ResultCache

    with _telemetry(args) as (bus, registry, tracer):
        cache = None if args.no_cache else ResultCache(root=args.cache_dir)
        yield BatchExecutor(workers=args.workers, cache=cache, bus=bus,
                            registry=registry, tracer=tracer)


def _dump_metrics(registry: "MetricsRegistry", path: str) -> None:
    import json

    snapshot = registry.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot.to_json_obj(), handle, sort_keys=True)
        handle.write("\n")
    print(f"metrics snapshot written to {path}", file=sys.stderr)


def _dump_trace(tracer: "SpanRecorder", path: str) -> None:
    events = tracer.write_chrome_trace(path)
    print(f"trace with {events} span(s) written to {path} "
          f"(load via chrome://tracing or ui.perfetto.dev)", file=sys.stderr)


# ------------------------------------------------------------ subcommands
def _cmd_list(args: argparse.Namespace) -> int:
    for name in list_apps():
        info = APP_REGISTRY[name]
        print(f"{name:24s} [{info.group:8s}] {info.description}")
    return 0


def _fault_spec(text: str):
    """argparse type for --faults: parse eagerly, fail as a usage error."""
    from repro.errors import FaultConfigError
    from repro.faults import parse_fault_spec

    try:
        return parse_fault_spec(text)
    except FaultConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness import RunSpec, execute_spec

    spec = RunSpec(
        args.app,
        compiler=args.compiler,
        optlevel=args.optlevel,
        threads=args.threads,
        throttle=args.throttle,
        payload=args.payload,
        seed=args.seed,
        faults=args.faults,  # parsed by argparse (_fault_spec)
    )
    record = execute_spec(spec)
    print(record.region)
    run = record.run
    print(
        f"tasks: {run.tasks_completed}  steals: {run.steals}  "
        f"spins: {run.spin_entries}  throttle on/off: "
        f"{run.throttle_activations}/{run.throttle_deactivations}"
    )
    if record.fault_stats is not None:
        from repro.measure.energy import SampleQuality

        injected = ", ".join(
            f"{kind}={count}" for kind, count in record.fault_stats.items() if count
        )
        quality = record.quality_counts
        qtext = ", ".join(f"{q.name}={quality.get(q, 0)}" for q in SampleQuality)
        print(f"faults injected: {injected or 'none'}")
        print(f"sample quality: {qtext}  "
              f"late/missed ticks: {record.late_ticks}/{record.missed_ticks}")
    if args.payload:
        print(f"result: {record.result_repr}")
    return 0


def _cmd_faultsweep(args: argparse.Namespace) -> int:
    from repro.experiments.faultsweep import run_fault_sweep

    apps, profiles = args.apps, args.profiles
    if args.quick:
        apps = apps[:1]
        profiles = tuple(p for p in profiles if p in ("none", "stall", "default"))
    with _make_harness(args) as harness:
        result = run_fault_sweep(apps, profiles, seed=args.seed, harness=harness)
    print(result.format())
    return 0


def _cmd_metersweep(args: argparse.Namespace) -> int:
    from repro.experiments.metersweep import (
        QUICK_PERIODS,
        QUICK_PROFILES,
        run_meter_sweep,
    )

    periods, profiles = args.periods, args.profiles
    if args.quick:
        periods = QUICK_PERIODS
        profiles = QUICK_PROFILES
    with _make_harness(args) as harness:
        result = run_meter_sweep(
            args.app, args.backends, periods, profiles,
            read_cost_s=args.read_cost,
            seed=args.seed, harness=harness,
        )
    print(result.format())
    return 0 if result.ok else 1


def _cmd_sched(args: argparse.Namespace) -> int:
    from repro.sched import SchedSpec
    from repro.harness.telemetry import SchedProgressSink

    spec = SchedSpec(
        profile=args.profile,
        policy=args.policy,
        nodes=args.nodes,
        budget_w=args.budget,
        jobs=args.jobs,
        rate_jobs_per_s=args.rate,
        queue_depth=args.queue_depth,
        seed=args.seed,
        time_limit_s=args.time_limit,
        execution=args.execution,
        retain_jobs=not args.no_retain,
        segment_jobs=args.segment_jobs,
    )
    # Sim-time spans: no wall clock, timestamps come from the engine via
    # explicit ``at=`` so the trace shows simulated time.
    with _telemetry(args, SchedProgressSink,
                    trace_clock=lambda: 0.0) as (bus, registry, tracer):
        result = spec.execute(bus=bus, checkpoint_dir=args.checkpoint_dir,
                              registry=registry, tracer=tracer)
    print(result.format())
    return 0 if not result.budget_violations else 1


def _cmd_schedsweep(args: argparse.Namespace) -> int:
    from repro.experiments.schedsweep import run_sched_sweep

    policies, profiles, budgets = args.policies, args.profiles, args.budgets
    jobs = args.jobs
    if args.quick:
        policies = policies[:2]
        profiles = profiles[:1]
        budgets = budgets[:1]
        jobs = min(jobs, 6)
    with _make_harness(args) as harness:
        result = run_sched_sweep(
            profiles, policies, budgets,
            nodes=args.nodes, jobs=jobs, seed=args.seed, harness=harness,
        )
        tournament = None
        if not args.quick and not args.no_tournament:
            from repro.experiments.schedsweep import run_policy_tournament

            tournament = run_policy_tournament(
                nodes=args.nodes, seed=args.seed, harness=harness,
            )
    print(result.format())
    if tournament is not None:
        print()
        print(tournament.format())
    return 0


def _cmd_coschedsweep(args: argparse.Namespace) -> int:
    from repro.experiments.coschedsweep import run_cosched_sweep

    apps, injectors, levels = args.apps, args.injectors, args.levels
    if args.quick:
        apps = apps[:2]
        injectors = injectors[:1]
        levels = levels[-1:]
    with _make_harness(args) as harness:
        result = run_cosched_sweep(
            apps, injectors, levels,
            threads=args.threads, scale=args.scale,
            inj_scale=args.inj_scale, seed=args.seed, harness=harness,
        )
    print(result.format())
    if args.output:
        result.store.save(args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import run_table1

    with _make_harness(args) as harness:
        print(run_table1(harness=harness).format())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table23 import run_table2

    with _make_harness(args) as harness:
        print(run_table2(harness=harness).format())
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table23 import run_table3

    with _make_harness(args) as harness:
        print(run_table3(harness=harness).format())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_figure

    with _make_harness(args) as harness:
        print(run_figure(args.figure, harness=harness).format())
    return 0


def _cmd_throttle(args: argparse.Namespace) -> int:
    from repro.experiments.throttling import run_all_throttle_tables, run_throttle_table

    with _make_harness(args) as harness:
        if args.app:
            print(run_throttle_table(args.app, harness=harness).format())
        else:
            for result in run_all_throttle_tables(harness=harness).values():
                print(result.format())
                print()
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import run_sensitivity

    with _make_harness(args) as harness:
        print(run_sensitivity(args.app, harness=harness).format())
    return 0


def _cmd_coldstart(args: argparse.Namespace) -> int:
    from repro.experiments.coldstart import run_cold_start

    with _telemetry(args) as (bus, _registry, _tracer):
        print(run_cold_start(bus=bus).format())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.compare import generate_experiments_report

    with _make_harness(args) as harness:
        text = generate_experiments_report(
            output=args.output, quick=args.quick, harness=harness
        )
    if args.output:
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness import ResultCache

    cache = ResultCache(root=args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    if args.action == "compact":
        stats = cache.compact()
        print(f"compacted {stats['shards']} shard ledger(s): "
              f"{stats['lines_before']} -> {stats['lines_after']} line(s)")
        return 0
    if args.action == "reindex":
        stats = cache.reindex()
        print(f"reindexed {cache.root}: {stats['digests']} digest(s), "
              f"{stats['puts']} put line(s)")
        return 0
    info = cache.info()
    print(f"root:           {info['root']}")
    print(f"code stamp:     {info['stamp']}")
    print(f"entries:        {info['entries']} "
          f"({info['current_stamp_entries']} under the current stamp)")
    print(f"size:           {info['bytes']} bytes")
    for stamp, count in sorted(info["stamps"].items()):
        marker = "  <-- current" if stamp == info["stamp"] else ""
        print(f"  stamp {stamp}: {count} entries{marker}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import (
        export_figure_csv,
        export_optlevels_csv,
        export_table1_csv,
        export_throttle_json,
    )

    what = args.artifact
    out = args.output
    with _make_harness(args) as harness:
        if what.startswith("fig"):
            from repro.experiments.figures import run_figure

            text = export_figure_csv(run_figure(what, harness=harness), out)
        elif what == "table1":
            from repro.experiments.table1 import run_table1

            text = export_table1_csv(run_table1(harness=harness), out)
        elif what in ("table2", "table3"):
            from repro.experiments.table23 import run_opt_levels

            compiler = "gcc" if what == "table2" else "icc"
            text = export_optlevels_csv(
                run_opt_levels(compiler, harness=harness), out
            )
        else:
            from repro.experiments.throttling import run_throttle_table

            app = {
                "table4": "lulesh",
                "table5": "dijkstra",
                "table6": "bots-health",
                "table7": "bots-strassen",
            }[what]
            text = export_throttle_json(run_throttle_table(app, harness=harness), out)
    if out:
        print(f"wrote {out}")
    else:
        print(text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate import (
        corpus,
        differential_specs,
        differential_sweep,
        run_cluster_validation,
        run_cosched_validation,
        run_scale_validation,
        run_validation_sweep,
    )

    ok = True
    with _telemetry(args) as (bus, _registry, _tracer):
        if not args.differential_only:
            sweep = run_validation_sweep(
                corpus(quick=args.quick), workers=args.workers, bus=bus
            )
            print(sweep.format())
            ok = ok and sweep.ok
            cluster = run_cluster_validation(quick=args.quick, bus=bus)
            print()
            print(cluster.format())
            ok = ok and cluster.ok
            scale = run_scale_validation(quick=args.quick)
            print()
            print(scale.format())
            ok = ok and scale.ok
            cosched = run_cosched_validation(quick=args.quick)
            print()
            print(cosched.format())
            ok = ok and cosched.ok
        if args.differential or args.differential_only:
            diff = differential_sweep(
                differential_specs(), workers=max(2, args.workers)
            )
            print()
            print(diff.format())
            ok = ok and diff.ok
    return 0 if ok else 1


def _cmd_recalibrate(args: argparse.Namespace) -> int:
    from repro.experiments.recalibrate import compute_residuals, write_residuals_module

    corrections = compute_residuals(verbose=True)
    path = write_residuals_module(corrections)
    print(f"wrote {len(corrections)} corrections to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.harness.cache import default_cache_root
    from repro.service.client import ServiceEventPrinter
    from repro.service.server import ServiceConfig, serve

    if args.cache_dir == "none":
        cache_root = None
    elif args.cache_dir is None:
        cache_root = str(default_cache_root())
    else:
        cache_root = args.cache_dir
    config = ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth,
        timeout_s=(args.timeout if args.timeout > 0 else None),
        retries=args.retries, max_redeliveries=args.redeliveries,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        cache_root=cache_root, journal_path=args.journal,
        journal_fsync=args.fsync, metrics_port=args.metrics_port,
    )
    with _telemetry(args, ServiceEventPrinter) as (bus, _registry, _tracer):
        try:
            asyncio.run(serve(config, bus))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError
    from repro.harness import RunSpec
    from repro.service.client import ServiceClient

    spec = RunSpec(
        args.app,
        compiler=args.compiler,
        optlevel=args.optlevel,
        threads=args.threads,
        throttle=args.throttle,
        payload=args.payload,
        scale=args.scale,
        seed=args.seed,
        faults=args.faults,
    )
    try:
        with ServiceClient(host=args.host, port=args.port,
                           name=args.client) as client:
            if args.no_wait:
                response = client.submit(spec)
                if not response.get("ok"):
                    print(f"shed: {response.get('error')} "
                          f"(retry_after_s={response.get('retry_after_s', 0)})",
                          file=sys.stderr)
                    return 1
            else:
                response = client.submit_and_wait(
                    spec, timeout_s=args.timeout)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("state") in ("done", "queued", "running") else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError
    from repro.obs import render_metrics_frame
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(host=args.host, port=args.port,
                           name="obs-report") as client:
            frame = client.metrics()
    except ServiceError as exc:
        print(f"obs report failed: {exc}", file=sys.stderr)
        return 1
    if args.prometheus:
        # Raw text exposition, suitable for piping to promtool et al.
        sys.stdout.write(frame["prometheus"])
        return 0
    if args.json:
        print(json.dumps(frame["snapshot"], indent=2, sort_keys=True))
        return 0
    print(render_metrics_frame(frame))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description=(
            "Reproduction of 'Power Measurement and Concurrency Throttling "
            "for Energy Reduction in OpenMP Programs' on a simulated "
            "two-socket Sandybridge node."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The sweeps' grid defaults become the list flags' defaults.
    from repro.calibration.paper_data import THROTTLE_TABLES
    from repro.experiments import coschedsweep, faultsweep, metersweep, schedsweep

    sub.add_parser("list", help="list benchmark applications").set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one application with measurement")
    run_p.add_argument("app", choices=sorted(APP_REGISTRY))
    run_p.add_argument("--compiler", default="gcc", choices=["gcc", "icc", "maestro"])
    run_p.add_argument("--optlevel", default="O2", choices=["O0", "O1", "O2", "O3"])
    run_p.add_argument("--threads", type=int, default=16)
    run_p.add_argument("--throttle", action="store_true",
                       help="enable MAESTRO dynamic concurrency throttling")
    run_p.add_argument("--payload", action="store_true",
                       help="run the real algorithm payloads in leaf tasks")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--faults", default=None, metavar="SPEC", type=_fault_spec,
        help="inject sensor-path faults: a profile name (e.g. 'default', "
             "'flaky-msr', 'stall') and/or comma-separated field=value "
             "overrides (see repro.faults)",
    )
    run_p.set_defaults(func=_cmd_run)

    fs_p = sub.add_parser(
        "faultsweep",
        help="rerun the throttling comparison under each fault profile",
    )
    fs_p.add_argument("--apps", type=_csv(str), default=faultsweep.DEFAULT_APPS,
                      help="comma-separated throttling apps (default: lulesh,dijkstra)")
    fs_p.add_argument("--profiles", type=_csv(str),
                      default=faultsweep.DEFAULT_PROFILES,
                      help="comma-separated fault profiles (default: all)")
    fs_p.add_argument("--seed", type=int, default=0)
    fs_p.add_argument("--quick", action="store_true",
                      help="one app, three profiles — the CI smoke configuration")
    _add_sweep_args(fs_p)
    fs_p.set_defaults(func=_cmd_faultsweep)

    ms_p = sub.add_parser(
        "metersweep",
        help="attribution error + observer overhead: backend x cadence x faults",
    )
    ms_p.add_argument("--app", default=metersweep.DEFAULT_APP,
                      help="workload to meter (default: lulesh)")
    ms_p.add_argument("--backends", type=_csv(str),
                      default=metersweep.DEFAULT_BACKENDS,
                      help="comma-separated metering backends "
                           "(default: rapl,counter-model)")
    ms_p.add_argument("--periods", type=_csv(float),
                      default=metersweep.DEFAULT_PERIODS, metavar="S,S",
                      help="comma-separated sampling periods in seconds "
                           "(default: 0.4,0.1,0.025)")
    ms_p.add_argument("--profiles", type=_csv(str),
                      default=metersweep.DEFAULT_PROFILES,
                      help="comma-separated fault profiles "
                           "(default: none,flaky-msr,stall)")
    ms_p.add_argument("--read-cost", type=float,
                      default=metersweep.DEFAULT_READ_COST_S, metavar="S",
                      help="observer cost per socket sample read, "
                           "solo-seconds (default: 0.002)")
    ms_p.add_argument("--seed", type=int, default=0)
    ms_p.add_argument("--quick", action="store_true",
                      help="both backends, two cadences, fault-free — the "
                           "CI smoke configuration")
    _add_sweep_args(ms_p)
    ms_p.set_defaults(func=_cmd_metersweep)

    sched_p = sub.add_parser(
        "sched", help="one scheduled cluster run (jobs onto budgeted nodes)"
    )
    from repro.sched.policy import POLICIES as _POLICIES
    from repro.sched.workload import TRACE_PROFILES as _PROFILES

    sched_p.add_argument("--profile", default="poisson",
                         choices=sorted(_PROFILES),
                         help="arrival trace profile (default: poisson)")
    sched_p.add_argument("--policy", default="fcfs", choices=sorted(_POLICIES),
                         help="placement policy (default: fcfs)")
    sched_p.add_argument("--nodes", type=int, default=4,
                         help="cluster nodes (default: 4)")
    sched_p.add_argument("--budget", type=float, default=400.0, metavar="W",
                         help="global power budget in watts (default: 400)")
    sched_p.add_argument("--jobs", type=int, default=16,
                         help="trace length in jobs (default: 16)")
    sched_p.add_argument("--rate", type=float, default=1.0, metavar="J/S",
                         help="mean arrival rate, jobs/s (default: 1.0)")
    sched_p.add_argument("--queue-depth", type=int, default=8,
                         help="admission-queue bound (default: 8)")
    sched_p.add_argument("--seed", type=int, default=0)
    sched_p.add_argument("--time-limit", type=float, default=600.0,
                         metavar="S",
                         help="simulated-time tripwire per segment; raise it "
                              "for long traces (default: 600)")
    from repro.sched.spec import EXECUTION_MODES as _EXECUTIONS
    sched_p.add_argument("--execution", default="full", choices=_EXECUTIONS,
                         help="job execution model: 'full' microsimulation or "
                              "the 'analytic' roofline closed form "
                              "(million-job scale)")
    sched_p.add_argument("--segment-jobs", type=int, default=0, metavar="N",
                         help="drain and checkpoint every N jobs "
                              "(0 = single segment)")
    sched_p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="persist segment checkpoints here and resume "
                              "from them (requires --segment-jobs)")
    sched_p.add_argument("--no-retain", action="store_true",
                         help="stream aggregation only: drop per-job records "
                              "(tails come from quantile sketches)")
    sched_p.add_argument("--events", default=None, metavar="FILE",
                         help="append structured telemetry events to FILE (JSONL)")
    sched_p.add_argument("--metrics", default=None, metavar="FILE",
                         help="dump a repro.obs metrics snapshot (JSON) to FILE")
    sched_p.add_argument("--trace", default=None, metavar="FILE",
                         help="write a Chrome-trace JSON of the campaign "
                              "(per-node job tracks, simulated time)")
    sched_p.add_argument("--quiet", action="store_true",
                         help="suppress the per-job narration")
    sched_p.set_defaults(func=_cmd_sched)

    ssw_p = sub.add_parser(
        "schedsweep", help="placement policy x power budget comparison table"
    )
    ssw_p.add_argument("--profiles", type=_csv(str),
                       default=schedsweep.DEFAULT_PROFILES,
                       help="comma-separated trace profiles (default: poisson,bursty)")
    ssw_p.add_argument("--policies", type=_csv(str),
                       default=schedsweep.DEFAULT_POLICIES,
                       help="comma-separated policies (default: the four "
                            "heuristics; the tournament adds 'predicted')")
    ssw_p.add_argument("--budgets", type=_csv(float),
                       default=schedsweep.DEFAULT_BUDGETS_W, metavar="W,W",
                       help="comma-separated global budgets in watts "
                            "(default: 300,500)")
    ssw_p.add_argument("--nodes", type=int, default=4)
    ssw_p.add_argument("--jobs", type=int, default=12)
    ssw_p.add_argument("--seed", type=int, default=0)
    ssw_p.add_argument("--quick", action="store_true",
                       help="2 policies, 1 profile, 1 budget, no tournament "
                            "— the CI smoke configuration")
    ssw_p.add_argument("--no-tournament", action="store_true",
                       help="skip the all-policy tournament cell (diurnal "
                            "trace, ranked by mean EDP)")
    _add_sweep_args(ssw_p)
    ssw_p.set_defaults(func=_cmd_schedsweep)

    csw_p = sub.add_parser(
        "coschedsweep",
        help="contention profiling: apps x injectors x pressure levels",
    )
    csw_p.add_argument("--apps", type=_csv(str),
                       default=coschedsweep.DEFAULT_APPS,
                       help="comma-separated apps to profile "
                            "(default: the scheduler's job mix)")
    csw_p.add_argument("--injectors", type=_csv(str),
                       default=coschedsweep.DEFAULT_INJECTORS,
                       help="comma-separated injector apps "
                            "(default: inject-membw,inject-coherence)")
    csw_p.add_argument("--levels", type=_csv(float),
                       default=coschedsweep.DEFAULT_LEVELS, metavar="L,L",
                       help="comma-separated pressure levels (default: 0.5,1)")
    csw_p.add_argument("--threads", type=int,
                       default=coschedsweep.DEFAULT_THREADS,
                       help="threads per co-runner (default: 8)")
    csw_p.add_argument("--scale", type=float,
                       default=coschedsweep.DEFAULT_SCALE,
                       help="probed-app work scale (default: 0.15)")
    csw_p.add_argument("--inj-scale", type=float,
                       default=coschedsweep.DEFAULT_INJ_SCALE,
                       help="injector work scale — sized to outlast the "
                            "probed app (default: 12)")
    csw_p.add_argument("--seed", type=int, default=0)
    csw_p.add_argument("--quick", action="store_true",
                       help="2 apps, 1 injector, 1 level — the CI smoke "
                            "configuration")
    csw_p.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="also persist the profile store as JSON")
    _add_sweep_args(csw_p)
    csw_p.set_defaults(func=_cmd_coschedsweep)

    t1_p = sub.add_parser("table1", help="Table I (GCC vs ICC)")
    _add_sweep_args(t1_p)
    t1_p.set_defaults(func=_cmd_table1)
    t2_p = sub.add_parser("table2", help="Table II (GCC -O levels)")
    _add_sweep_args(t2_p)
    t2_p.set_defaults(func=_cmd_table2)
    t3_p = sub.add_parser("table3", help="Table III (ICC -O levels)")
    _add_sweep_args(t3_p)
    t3_p.set_defaults(func=_cmd_table3)

    fig_p = sub.add_parser("figure", help="Figures 1-4 (scaling sweeps)")
    fig_p.add_argument("figure", choices=["fig1", "fig2", "fig3", "fig4"])
    _add_sweep_args(fig_p)
    fig_p.set_defaults(func=_cmd_figure)

    thr_p = sub.add_parser("throttle", help="Tables IV-VII (dynamic throttling)")
    thr_p.add_argument("app", nargs="?", default=None,
                       choices=sorted(THROTTLE_TABLES))
    _add_sweep_args(thr_p)
    thr_p.set_defaults(func=_cmd_throttle)

    sen_p = sub.add_parser(
        "sensitivity", help="policy sweep over the High-power threshold"
    )
    sen_p.add_argument("app", nargs="?", default="lulesh")
    _add_sweep_args(sen_p)
    sen_p.set_defaults(func=_cmd_sensitivity)

    cold_p = sub.add_parser("coldstart", help="footnote 2 (cold-system effect)")
    cold_p.add_argument("--quiet", action="store_true",
                        help="suppress the progress renderer")
    cold_p.set_defaults(func=_cmd_coldstart)

    rep_p = sub.add_parser("reproduce", help="full paper-vs-measured report")
    rep_p.add_argument("-o", "--output", default=None)
    rep_p.add_argument("--quick", action="store_true")
    _add_sweep_args(rep_p)
    rep_p.set_defaults(func=_cmd_reproduce)

    exp_p = sub.add_parser("export", help="export an artifact as CSV/JSON")
    exp_p.add_argument(
        "artifact",
        choices=["table1", "table2", "table3", "table4", "table5", "table6",
                 "table7", "fig1", "fig2", "fig3", "fig4"],
    )
    exp_p.add_argument("-o", "--output", default=None)
    _add_sweep_args(exp_p)
    exp_p.set_defaults(func=_cmd_export)

    val_p = sub.add_parser(
        "validate",
        help="sweep the scenario corpus under the physics-invariant sanitizer",
    )
    val_p.add_argument("--quick", action="store_true",
                       help="validate the quick corpus subset (smoke use)")
    val_p.add_argument("--differential", action="store_true",
                       help="also run the differential bit-identity replay")
    val_p.add_argument("--differential-only", action="store_true",
                       help="run only the differential replay, skip the corpus")
    val_p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (default: 1, serial)")
    val_p.add_argument("--events", default=None, metavar="FILE",
                       help="append structured telemetry events to FILE (JSONL)")
    val_p.add_argument("--quiet", action="store_true",
                       help="suppress the per-run progress renderer")
    val_p.set_defaults(func=_cmd_validate)

    cache_p = sub.add_parser(
        "cache", help="inspect, clear, compact or reindex the result cache"
    )
    cache_p.add_argument(
        "action", choices=["info", "clear", "compact", "reindex"]
    )
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache root (default: ~/.cache/repro-harness "
                              "or $REPRO_CACHE_DIR)")
    cache_p.set_defaults(func=_cmd_cache)

    serve_p = sub.add_parser(
        "serve",
        help="run the always-on experiment service (NDJSON over TCP)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7823,
                         help="listen port (0: ephemeral, printed on start)")
    serve_p.add_argument("--workers", type=int, default=2)
    serve_p.add_argument("--queue-depth", type=int, default=64)
    serve_p.add_argument("--timeout", type=float, default=120.0, metavar="S",
                         help="per-attempt hard deadline (0: unbounded)")
    serve_p.add_argument("--retries", type=int, default=2)
    serve_p.add_argument("--redeliveries", type=int, default=2,
                         help="crash redeliveries before poison quarantine")
    serve_p.add_argument("--quota-rate", type=float, default=50.0)
    serve_p.add_argument("--quota-burst", type=float, default=100.0)
    serve_p.add_argument("--cache-dir", default=None,
                         help="result-cache root (default: the harness "
                              "default; pass 'none' to disable)")
    serve_p.add_argument("--journal", default=None, metavar="FILE",
                         help="write-ahead journal path (enables crash "
                              "recovery)")
    serve_p.add_argument("--fsync", action="store_true",
                         help="fsync every journal append")
    serve_p.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve the Prometheus text exposition over "
                              "HTTP on PORT (0: ephemeral; default: off)")
    serve_p.add_argument("--events", default=None, metavar="FILE",
                         help="append service telemetry to FILE (JSONL)")
    serve_p.add_argument("--quiet", action="store_true",
                         help="suppress the event narration on stderr")
    serve_p.set_defaults(func=_cmd_serve)

    submit_p = sub.add_parser(
        "submit", help="submit one run spec to a running service")
    submit_p.add_argument("app", choices=sorted(APP_REGISTRY))
    submit_p.add_argument("--compiler", default="gcc",
                          choices=["gcc", "icc", "maestro"])
    submit_p.add_argument("--optlevel", default="O2",
                          choices=["O0", "O1", "O2", "O3"])
    submit_p.add_argument("--threads", type=int, default=16)
    submit_p.add_argument("--throttle", action="store_true")
    submit_p.add_argument("--payload", action="store_true")
    submit_p.add_argument("--scale", type=float, default=1.0)
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument("--faults", default=None, metavar="SPEC",
                          type=_fault_spec)
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=int, default=7823)
    submit_p.add_argument("--client", default="cli",
                          help="client id for quota accounting")
    submit_p.add_argument("--no-wait", action="store_true",
                          help="return after admission instead of blocking "
                               "for the result")
    submit_p.add_argument("--timeout", type=float, default=None,
                          dest="timeout", metavar="S",
                          help="max seconds to wait for the result")
    submit_p.set_defaults(func=_cmd_submit)

    obs_p = sub.add_parser(
        "obs",
        help="observability: report a live service's metrics and spans")
    obs_p.add_argument("action", choices=["report"],
                       help="'report' pretty-prints the service's metrics "
                            "frame (headline gauges, instruments, top spans)")
    obs_p.add_argument("--host", default="127.0.0.1")
    obs_p.add_argument("--port", type=int, default=7823)
    obs_p.add_argument("--prometheus", action="store_true",
                       help="print the raw Prometheus text exposition instead")
    obs_p.add_argument("--json", action="store_true",
                       help="print the metrics snapshot as JSON instead")
    obs_p.set_defaults(func=_cmd_obs)

    sub.add_parser("recalibrate", help="refresh empirical residuals").set_defaults(
        func=_cmd_recalibrate
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-paper {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
