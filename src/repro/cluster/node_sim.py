"""One cluster node: the full single-node stack on a shared engine.

Each :class:`ClusterNode` owns its own simulated hardware, runtime,
RCRdaemon, region client and power clamp; only the discrete-event engine
is shared, so all nodes advance in one global timeline and the
coordinator can read their meters coherently.

A node runs a *sequence* of jobs: the runtime's root-task slot is reused
per job (``spawn_root`` is re-armable once the previous root completes)
and every job gets its own named measurement region, so per-job energy
figures come from the same RCR path as the paper's single-node tables.
Both multi-node tools build this class: :func:`~repro.cluster.\
coordinator.run_cluster` gives each node one job, the scheduler's
:class:`~repro.sched.cluster.ClusterSim` feeds nodes from its queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.apps import build_app
from repro.config import MachineConfig, PAPER_MACHINE, RuntimeConfig
from repro.errors import SimulationError
from repro.openmp import OmpEnv
from repro.qthreads import Runtime
from repro.rcr import Blackboard, RCRDaemon, RegionClient, RegionReport, meters
from repro.sim.engine import Engine
from repro.throttle.clamp import PowerClampController

if TYPE_CHECKING:  # pragma: no cover - repro.sched imports this package
    from repro.sched.workload import Job


class ClusterNode:
    """A named node that runs jobs in sequence under a local power clamp.

    Presents the surface the
    :class:`~repro.cluster.coordinator.PowerCoordinator` reads —
    ``name``, ``clamp``, ``measured_power_w``, ``done``,
    ``wants_more_power`` — where "done" means *idle*: an idle node bids
    only the power floor, so budget flows to nodes with work.

    Finished jobs are handed to ``on_finish(node, job, start_s, report)``
    rather than accumulated here, so a node's memory footprint is
    independent of how many jobs it has run.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        *,
        budget_w: float,
        threads: int = 16,
        machine: MachineConfig = PAPER_MACHINE,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.engine = engine
        self.runtime = Runtime(
            machine,
            RuntimeConfig(num_threads=threads),
            engine=engine,
            seed=seed,
            stop_engine_on_done=False,
        )
        self.blackboard = Blackboard()
        self.daemon = RCRDaemon(engine, self.runtime.node, self.blackboard)
        self.daemon.start()
        self.client = RegionClient(
            engine, self.blackboard, machine.sockets, daemon=self.daemon
        )
        self.clamp = PowerClampController(
            engine, self.runtime.scheduler, self.blackboard, budget_w
        )
        self.clamp.start()
        self.on_finish: Optional[
            Callable[[ClusterNode, Job, float, RegionReport], None]
        ] = None
        self._current: Optional[Job] = None
        self._start_s = 0.0

    # ------------------------------------------- coordinator interface
    @property
    def done(self) -> bool:
        """True while the node is idle (bids only the floor)."""
        return self._current is None

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def measured_power_w(self) -> float:
        """Last daemon-published node power."""
        return self.blackboard.read_value(meters.NODE_POWER_W, default=0.0)

    @property
    def wants_more_power(self) -> bool:
        """True while a job runs and the local clamp is shedding threads."""
        return self.busy and self.clamp.pressure > 0.0

    # ----------------------------------------------------- job lifecycle
    def start_job(self, job: Job) -> None:
        """Dispatch ``job`` onto this node (must be idle)."""
        if self._current is not None:
            raise SimulationError(
                f"node {self.name} is busy with j{self._current.index}; "
                f"cannot place j{job.index}"
            )
        self._current = job
        self._start_s = self.engine.now
        region = self._region_name(job)
        self.client.start(region)
        program = build_app(
            job.app,
            OmpEnv(num_threads=job.threads),
            compiler=job.compiler,
            optlevel=job.optlevel,
            scale=job.scale,
        )
        root = self.runtime.spawn_root(program, label=region)
        # Close the measurement region the instant this job completes —
        # other nodes keep running on the shared engine.
        root.add_listener(lambda _task: self._finish_job())

    def _region_name(self, job: Job) -> str:
        return f"{self.name}:j{job.index}"

    def _finish_job(self) -> None:
        job = self._current
        assert job is not None
        report = self.client.end(self._region_name(job))
        self._current = None
        if self.on_finish is not None:
            self.on_finish(self, job, self._start_s, report)

    def shutdown(self) -> None:
        """Cancel the node's repeating timers (clamp + daemon ticks).

        Idempotent, and safe to call whether or not a job is running —
        the cluster drivers call it from a ``finally`` so a timed-out run
        cannot leak scheduled events into the engine.
        """
        self.clamp.stop()
        self.daemon.stop()
