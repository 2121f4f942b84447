"""Execute one co-run: two programs contending on a shared node.

The probed application and the contention injector run as sibling task
trees on *one* simulated node (one :class:`~repro.qthreads.Runtime`
worker pool, one RCR daemon), so they contend for exactly the shared
resources the paper's model prices: memory bandwidth through the
contention exponent, cache-line ping-pong through the coherence
penalty, and the socket power budget.  Each program is wrapped in its
own RCR measurement region, so the record reports paper-style
time/energy/power *per program*, not just for the node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.apps import APP_REGISTRY, build_app
from repro.config import MachineConfig, PAPER_MACHINE, RuntimeConfig
from repro.cosched.spec import CoschedSpec
from repro.openmp import OmpEnv
from repro.qthreads import Runtime
from repro.qthreads.api import Spawn, Taskwait
from repro.rcr import Blackboard, RCRDaemon, RegionClient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import Observer


@dataclass(frozen=True)
class CoschedRecord:
    """Measured outcome of one co-run, reduced to picklable scalars.

    Equality (used by the determinism tests) covers every simulated
    quantity exactly; host wall time is excluded like everywhere else.
    """

    spec: CoschedSpec
    #: Probed app's RCR region (the paper-style measurement).
    app_time_s: float = 0.0
    app_energy_j: float = 0.0
    app_watts: float = 0.0
    #: Injector's region (zero on solo runs).
    inj_time_s: float = 0.0
    inj_energy_j: float = 0.0
    inj_watts: float = 0.0
    #: Engine time from root start to both programs done.
    makespan_s: float = 0.0
    tasks_completed: int = 0
    #: Host seconds spent executing (informational only).
    wall_s: float = field(default=0.0, compare=False)

    # Harness view: a co-run "is" its probed app's measurement.
    @property
    def time_s(self) -> float:
        return self.app_time_s

    @property
    def energy_j(self) -> float:
        return self.app_energy_j

    @property
    def watts(self) -> float:
        return self.app_watts


def _level_kwargs(app: str, level: float) -> dict[str, float]:
    """Builder kwargs for the pressure knob (injector apps only)."""
    info = APP_REGISTRY[app]
    if info.group == "injector":
        return {"level": level}
    return {}


def run_corun(
    spec: CoschedSpec,
    *,
    observer: Optional["Observer"] = None,
    machine: MachineConfig = PAPER_MACHINE,
) -> CoschedRecord:
    """Run one co-run spec and measure both programs' regions.

    Top-level and all-scalar in/out, so the harness can fan it out over
    a process pool.  ``observer`` (e.g. an
    :class:`~repro.validate.checker.InvariantChecker`) is attached to the
    shared node for the run, as in
    :func:`~repro.experiments.runner.run_measurement`; the checker
    observes read-only, so a checked run is bit-identical.
    """
    t0 = time.perf_counter()
    runtime = Runtime(
        machine,
        RuntimeConfig(num_threads=spec.node_threads),
        seed=spec.seed,
        warm=True,
    )
    if observer is not None:
        observer.attach(runtime.engine, runtime.node)
    blackboard = Blackboard()
    daemon = RCRDaemon(runtime.engine, runtime.node, blackboard)
    daemon.start()
    client = RegionClient(
        runtime.engine, blackboard, machine.sockets, daemon=daemon
    )

    app_prog = build_app(
        spec.app,
        OmpEnv(num_threads=spec.threads),
        compiler=spec.compiler,
        optlevel=spec.optlevel,
        scale=spec.scale,
        **_level_kwargs(spec.app, spec.app_level),
    )
    regions: dict[str, Any] = {}

    def timed(name: str, program: Generator) -> Generator:
        client.start(name)
        result = yield from program
        regions[name] = client.end(name)
        return result

    if spec.injector is None:
        def root() -> Generator:
            yield Spawn(timed("app", app_prog), label=spec.app)
            yield Taskwait()
    else:
        inj_prog = build_app(
            spec.injector,
            OmpEnv(num_threads=spec.inj_threads),
            compiler=spec.compiler,
            optlevel=spec.optlevel,
            scale=spec.inj_scale,
            level=spec.level,
        )

        def root() -> Generator:
            # Injector first: it ramps before the probed app's tasks land.
            yield Spawn(timed("inj", inj_prog), label=spec.injector)
            yield Spawn(timed("app", app_prog), label=spec.app)
            yield Taskwait()

    try:
        run = runtime.run(root(), label=spec.describe())
    finally:
        daemon.stop()
        if observer is not None:
            observer.detach()

    app_region = regions["app"]
    inj_region = regions.get("inj")
    return CoschedRecord(
        spec=spec,
        app_time_s=app_region.elapsed_s,
        app_energy_j=app_region.energy_j,
        app_watts=app_region.avg_watts,
        inj_time_s=inj_region.elapsed_s if inj_region else 0.0,
        inj_energy_j=inj_region.energy_j if inj_region else 0.0,
        inj_watts=inj_region.avg_watts if inj_region else 0.0,
        makespan_s=run.elapsed_s,
        tasks_completed=run.tasks_completed,
        wall_s=time.perf_counter() - t0,
    )
