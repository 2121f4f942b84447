"""Canonical benchmark scenarios for the simulation engine.

Two families:

* **microbenchmarks** exercising the discrete-event engine alone
  (``event-drain``, ``cancel-churn``) — these isolate the per-event cost
  of the heap, the handles and the run loop, with no hardware model in
  the way;
* **end-to-end scenarios** running the full paper stack (node + runtime +
  RCRdaemon + region measurement) for one Table I cell — these measure
  what an experiment sweep actually pays per run.

Every scenario is deterministic, so wall time is the only thing that
varies between runs.

The same full-stack builder (:func:`run_stack`) also powers the
golden-trace digests (:mod:`repro.perf.golden`), so the configuration
being benchmarked and the configuration being pinned for bit-identity are
one and the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.sim.trace import Trace


# ----------------------------------------------------------------------
# full paper stack (shared by benches and golden digests)
# ----------------------------------------------------------------------
@dataclass
class StackResult:
    """Everything a digest or a benchmark needs from one full-stack run."""

    engine: Engine
    node: Any
    runtime: Any
    daemon: Any
    report: Any  # RegionReport
    run: Any  # RunResult


def run_stack(
    app: str,
    *,
    compiler: str = "gcc",
    optlevel: str = "O2",
    threads: int = 16,
    throttle: bool = False,
    faults: Optional[Any] = None,
    meter: Optional[Any] = None,
    seed: int = 0,
    scale: float = 1.0,
    trace: bool = False,
    trace_capacity: int = 300_000,
    checker: Optional[Any] = None,
) -> StackResult:
    """Run one application through the full measurement stack.

    Mirrors :func:`repro.experiments.runner.run_measurement` exactly, with
    one addition: the engine can carry an *enabled* trace so golden tests
    can hash the complete event timeline.  Imports are deferred so the
    engine microbenchmarks do not pay for the full stack's import graph.
    """
    from repro.calibration.profiles import get_profile
    from repro.config import PAPER_MACHINE, RuntimeConfig, ThrottleConfig
    from repro.faults import FaultInjector
    from repro.apps import build_app
    from repro.openmp import OmpEnv
    from repro.qthreads import Runtime
    from repro.rcr import Blackboard, RCRDaemon, RegionClient
    from repro.throttle import ThrottleController

    machine = PAPER_MACHINE
    engine = Engine(trace=Trace(enabled=trace, capacity=trace_capacity))
    profile = get_profile(app, compiler, optlevel, machine)
    runtime = Runtime(
        machine,
        RuntimeConfig(num_threads=threads),
        engine=engine,
        seed=seed,
        warm=True,
    )
    injector = None
    if faults is not None and not faults.inert:
        injector = FaultInjector(
            faults,
            runtime.rng.stream("faults"),
            now_fn=lambda: runtime.engine.now,
        )
    blackboard = Blackboard()
    daemon = RCRDaemon(
        runtime.engine, runtime.node, blackboard, faults=injector, meter=meter
    )
    daemon.start()
    client = RegionClient(runtime.engine, blackboard, machine.sockets, daemon=daemon)
    controller = None
    if throttle:
        controller = ThrottleController(
            runtime.engine, runtime.scheduler, blackboard, ThrottleConfig(enabled=True)
        )
        controller.start()

    if checker is not None:
        checker.attach(runtime.engine, runtime.node)

    env = OmpEnv(num_threads=threads)
    program = build_app(app, env, profile=profile, payload=False, scale=scale)
    client.start(app)
    run = runtime.run(program, label=app)
    report = client.end(app)
    daemon.stop()
    if controller is not None:
        controller.stop()
    if checker is not None:
        checker.detach()
    return StackResult(
        engine=engine,
        node=runtime.node,
        runtime=runtime,
        daemon=daemon,
        report=report,
        run=run,
    )


# ----------------------------------------------------------------------
# engine microbenchmarks
# ----------------------------------------------------------------------
def _scenario_event_drain(
    timers: int = 64,
    ticks_per_timer: int = 2_000,
) -> dict[str, Any]:
    """Periodic-timer drain: the RCRdaemon/controller shape of load.

    ``timers`` self-rescheduling callbacks with staggered periods across
    all priority bands; several timers share periods, so same-timestamp
    batches occur constantly — exactly the pattern the engine sees from
    daemon ticks, throttle evaluations and segment completions.
    """
    engine = Engine()
    priorities = (Priority.MACHINE, Priority.SCHEDULER, Priority.DAEMON, Priority.USER)
    remaining = [ticks_per_timer] * timers

    def make_tick(idx: int, period: float, priority: int) -> Callable[[], None]:
        def tick() -> None:
            remaining[idx] -= 1
            if remaining[idx] > 0:
                engine.schedule(period, tick, priority=priority, label="tick")
        return tick

    for i in range(timers):
        period = 0.001 * (1 + i % 8)  # 8 distinct periods -> heavy ties
        priority = priorities[i % len(priorities)]
        engine.schedule(period, make_tick(i, period, priority), priority=priority)
    engine.run()
    return {
        "events": engine.fired,
        "simulated_s": engine.now,
        "pending": engine.pending,
    }


def _scenario_cancel_churn(
    chains: int = 32,
    steps: int = 2_000,
) -> dict[str, Any]:
    """Cancel/reschedule churn: the fluid-model completion shape of load.

    Every fired event schedules a handful of future events and immediately
    cancels all but one — the node's ``_schedule_completion`` cancels and
    re-pushes its completion event once per engine event that changed
    machine state, so dead-entry skipping and heap compaction dominate here.
    """
    engine = Engine()
    fired = [0]

    def make_step(step_idx: int) -> Callable[[], None]:
        def step() -> None:
            fired[0] += 1
            if step_idx >= steps:
                return
            keeper = engine.schedule(0.001, make_step(step_idx + 1),
                                     priority=Priority.MACHINE)
            doomed = [
                engine.schedule(0.002 + 0.001 * k, lambda: None,
                                priority=Priority.MACHINE)
                for k in range(7)
            ]
            for handle in doomed:
                handle.cancel()
            assert keeper.active
        return step

    for c in range(chains):
        engine.schedule(0.001 * (c + 1), make_step(1), priority=Priority.MACHINE)
    engine.run()
    return {
        "events": engine.fired,
        "simulated_s": engine.now,
        "pending": engine.pending,
    }


# ----------------------------------------------------------------------
# end-to-end scenarios (paper-table cells)
# ----------------------------------------------------------------------
def _scenario_table1_fib() -> dict[str, Any]:
    """One Table I cell end to end: BOTS fib (cutoff), GCC -O2, 16 threads."""
    result = run_stack("bots-fib", compiler="gcc", optlevel="O2", threads=16)
    return {
        "events": result.engine.fired,
        "simulated_s": result.run.elapsed_s,
        "energy_j": result.run.energy_j,
        "daemon_ticks": result.daemon.ticks,
    }


def _scenario_table1_lulesh() -> dict[str, Any]:
    """A heavier Table I cell: the LULESH mini-app, GCC -O2, 16 threads."""
    result = run_stack("lulesh", compiler="gcc", optlevel="O2", threads=16)
    return {
        "events": result.engine.fired,
        "simulated_s": result.run.elapsed_s,
        "energy_j": result.run.energy_j,
        "daemon_ticks": result.daemon.ticks,
    }


def _scenario_table1_fib_validated() -> dict[str, Any]:
    """The ``table1-bots-fib`` cell with the invariant checker attached.

    Pairs with the unchecked cell so the benchmark runner can report the
    sanitizer's overhead; any unexpected violation here is a hard failure
    (the cell is fault-free, so the physics must be clean).
    """
    from repro.validate import InvariantChecker

    checker = InvariantChecker()
    result = run_stack(
        "bots-fib", compiler="gcc", optlevel="O2", threads=16, checker=checker
    )
    if checker.violation_counts:
        raise AssertionError(
            f"invariant violations in benchmark run: {checker.violation_counts}"
        )
    return {
        "events": result.engine.fired,
        "simulated_s": result.run.elapsed_s,
        "energy_j": result.run.energy_j,
        "daemon_ticks": result.daemon.ticks,
        "invariant_checks": sum(checker.checks.values()),
    }


def _scenario_table1_fib_metered() -> dict[str, Any]:
    """The ``table1-bots-fib`` cell with the counter-model meter charging.

    Pairs with the unmetered cell so the benchmark runner can report what
    the metering layer costs per run: the software-wattmeter backend reads
    both cycle counters for all 16 cores every tick, and each socket
    sample read is charged to the overhead core.
    """
    from repro.config import MeterConfig

    result = run_stack(
        "bots-fib", compiler="gcc", optlevel="O2", threads=16,
        meter=MeterConfig(backend="counter-model", read_cost_s=0.002),
    )
    return {
        "events": result.engine.fired,
        "simulated_s": result.run.elapsed_s,
        "energy_j": result.run.energy_j,
        "daemon_ticks": result.daemon.ticks,
        "overhead_reads": result.daemon.overhead_reads_charged,
    }


#: Scenario registry: name -> zero-argument callable returning metadata.
BENCH_SCENARIOS: dict[str, Callable[[], dict[str, Any]]] = {
    "event-drain": _scenario_event_drain,
    "cancel-churn": _scenario_cancel_churn,
    "table1-bots-fib": _scenario_table1_fib,
    "table1-lulesh": _scenario_table1_lulesh,
    "table1-fib-validated": _scenario_table1_fib_validated,
    "table1-fib-metered": _scenario_table1_fib_metered,
}

#: (checked, unchecked) scenario pairs whose wall-time delta is the
#: observer overhead.  A pair member absent from a baseline must degrade
#: to a "(new pair; no baseline)" note, never a KeyError — see
#: :func:`repro.perf.benchreport.overhead_report`.
OVERHEAD_PAIRS: tuple[tuple[str, str], ...] = (
    ("table1-fib-validated", "table1-bots-fib"),
    ("table1-fib-metered", "table1-bots-fib"),
)
