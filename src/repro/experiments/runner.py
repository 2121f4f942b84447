"""Shared measurement pipeline for all experiments.

One call of :func:`run_measurement` assembles the full paper stack —
simulated node, Qthreads runtime, RCRdaemon, region-measurement client
and (optionally) the MAESTRO throttle controller — runs one application,
and reports the same quantities the paper's tables do: execution time,
total Joules, average Watts.

Reported time/energy/power come from the *RCR measurement path* (RAPL
counters read through MSRs with wrap handling, at daemon granularity),
exactly as the paper measured; the simulator's ground truth is also
attached so tests can verify the measurement path against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

from repro.apps import app_profile, build_app
from repro.calibration.profiles import WorkloadProfile
from repro.config import (
    FaultConfig,
    MachineConfig,
    MeterConfig,
    PAPER_MACHINE,
    RuntimeConfig,
    ThrottleConfig,
)
from repro.faults import FaultInjector
from repro.measure.report import MeasurementRow
from repro.openmp import OmpEnv
from repro.qthreads import Runtime
from repro.qthreads.runtime import RunResult
from repro.rcr import Blackboard, RCRDaemon, RegionClient, RegionReport
from repro.throttle import ThrottleController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.node import Node
    from repro.sim.engine import Engine


class Observer(Protocol):
    """Hook attached around one run (see :func:`run_measurement`)."""

    def attach(self, engine: "Engine", node: "Node") -> None: ...

    def detach(self) -> None: ...


@dataclass
class MeasurementResult:
    """One application execution with paper-style measurements."""

    app: str
    compiler: str
    optlevel: str
    threads: int
    throttled: bool
    #: Paper-style measurement (RCR region over RAPL counters).
    region: RegionReport
    #: Simulator ground truth and runtime statistics.
    run: RunResult
    #: Throttle decision log (None when the controller was off).
    controller: Optional[ThrottleController] = None
    #: The sampling daemon (exposes watchdog counters and the per-sample
    #: quality histogram for robustness experiments).
    daemon: Optional[RCRDaemon] = None
    #: Fault injector (None when no faults were enabled for the run).
    faults: Optional[FaultInjector] = None

    @property
    def time_s(self) -> float:
        return self.region.elapsed_s

    @property
    def energy_j(self) -> float:
        return self.region.energy_j

    @property
    def watts(self) -> float:
        return self.region.avg_watts

    def row(self, label: Optional[str] = None) -> MeasurementRow:
        """Render as a paper-style table row."""
        return MeasurementRow(
            label=label if label is not None else self.app,
            time_s=self.time_s,
            energy_j=self.energy_j,
            avg_watts=self.watts,
        )


def run_measurement(
    app: str,
    compiler: str = "gcc",
    optlevel: str = "O2",
    threads: int = 16,
    *,
    throttle: bool = False,
    throttle_config: Optional[ThrottleConfig] = None,
    profile: Optional[WorkloadProfile] = None,
    machine: MachineConfig = PAPER_MACHINE,
    warm: bool = True,
    payload: bool = False,
    scale: float = 1.0,
    seed: int = 0,
    faults: Optional[FaultConfig] = None,
    meter: Optional[MeterConfig] = None,
    app_kwargs: Optional[dict] = None,
    observer: Optional["Observer"] = None,
) -> MeasurementResult:
    """Run one application through the full measurement stack.

    ``faults`` optionally injects deterministic sensor-path faults (see
    :mod:`repro.faults`); an absent or inert config leaves the pipeline
    bit-identical to a fault-free build.

    ``meter`` optionally selects the daemon's metering backend, sampling
    cadence and observer-overhead cost (see :mod:`repro.metering`); an
    absent or inert config is likewise bit-identical to the default.

    ``observer`` is attached to the run's engine and node before any
    event fires (``observer.attach(engine, node)``) and detached after it,
    even if the run raises.  The
    :class:`~repro.validate.checker.InvariantChecker` is one (its detach
    runs the final invariant battery); the golden digests use another to
    switch on the event trace.  An observer that only reads through probes
    leaves the run bit-identical to an unobserved one.
    """
    if profile is None:
        profile = app_profile(app, compiler, optlevel, machine)
    runtime = Runtime(
        machine,
        RuntimeConfig(num_threads=threads),
        seed=seed,
        warm=warm,
    )
    if observer is not None:
        observer.attach(runtime.engine, runtime.node)
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
        config = throttle_config if throttle_config is not None else ThrottleConfig(enabled=True)
        controller = ThrottleController(runtime.engine, runtime.scheduler, blackboard, config)
        controller.start()

    env = OmpEnv(num_threads=threads)
    program = build_app(
        app, env, profile=profile, payload=payload, scale=scale,
        **(app_kwargs or {}),
    )
    # The daemon and controller hold engine timers; a crash in the run
    # (or in the region end-read) must still cancel them, or the handles
    # leak into any later use of the engine.
    try:
        client.start(app)
        run = runtime.run(program, label=app)
        report = client.end(app)
    finally:
        daemon.stop()
        if controller is not None:
            controller.stop()
        if observer is not None:
            observer.detach()
    return MeasurementResult(
        app=app,
        compiler=compiler,
        optlevel=optlevel,
        threads=threads,
        throttled=throttle,
        region=report,
        run=run,
        controller=controller,
        daemon=daemon,
        faults=injector,
    )
