"""The runtime facade: engine + node + scheduler, program lifecycle.

:class:`Runtime` is what applications and experiments construct.  It wires
the discrete-event engine, the simulated node, the scheduler, and
(optionally) the RCR daemon and MAESTRO throttle controller, then runs a
root task to completion and reports time/energy/power.

A run ends when the root task completes; the paper's fourth spinner wake
condition (application completion) is honoured by releasing the throttle
and waking all spinners just before the clock stops, so no core is left
duty-modulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.config import MachineConfig, PAPER_MACHINE, RuntimeConfig
from repro.errors import DeadlockError, SimulationError
from repro.hw.node import Node
from repro.qthreads.api import TaskGen
from repro.qthreads.scheduler import Scheduler
from repro.qthreads.task import Task
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

#: Default wall-clock ceiling for a simulated program, seconds.  Generous:
#: the paper's longest run is ~142 s.
DEFAULT_TIME_LIMIT_S = 10_000.0


@dataclass
class RunResult:
    """Outcome of one program execution on the simulated node."""

    #: Return value of the root task generator.
    result: Any
    #: Simulated wall time from start to root completion, seconds.
    elapsed_s: float
    #: Energy consumed during the run, per socket, Joules.
    energy_j_sockets: list[float] = field(default_factory=list)
    #: Average power over the run, Watts.
    avg_power_w: float = 0.0
    #: Final die temperatures per socket, deg C.
    final_temps_degc: list[float] = field(default_factory=list)
    #: Scheduler statistics.
    tasks_spawned: int = 0
    tasks_completed: int = 0
    steals: int = 0
    spin_entries: int = 0
    throttle_activations: int = 0
    throttle_deactivations: int = 0

    @property
    def energy_j(self) -> float:
        """Total energy over the run, both sockets, Joules."""
        return sum(self.energy_j_sockets)


class Runtime:
    """Qthreads-style runtime bound to one simulated node."""

    def __init__(
        self,
        machine: MachineConfig = PAPER_MACHINE,
        runtime_config: Optional[RuntimeConfig] = None,
        *,
        engine: Optional[Engine] = None,
        seed: int = 0,
        warm: bool = True,
        stop_engine_on_done: bool = True,
        track_tag_energy: bool = False,
    ) -> None:
        self.machine = machine
        self.config = runtime_config if runtime_config is not None else RuntimeConfig()
        self.engine = engine if engine is not None else Engine()
        self.rng = RngStreams(seed)
        self.node = Node(
            self.engine, machine, warm=warm, track_tag_energy=track_tag_energy
        )
        self.scheduler = Scheduler(
            self.engine, self.node, machine, self.config, self.rng.stream("steal")
        )
        self._root: Optional[Task] = None
        self._root_done = False
        #: When several runtimes co-simulate on one engine (the cluster
        #: extension), a finishing root must not stop the shared engine.
        self._stop_engine_on_done = stop_engine_on_done
        #: Hooks invoked at parallel region/loop boundaries (throttle
        #: controller wake conditions); the OpenMP layer triggers these.
        self._region_listeners: list = []

    # ------------------------------------------------------------------
    # program lifecycle
    # ------------------------------------------------------------------
    def spawn_root(self, gen: TaskGen, label: str = "main") -> Task:
        """Create and enqueue the program's root task."""
        if self._root is not None and not self._root.done:
            raise SimulationError("a root task is already running")
        root = Task(gen, parent=None, label=label)
        self._root = root
        self._root_done = False
        root.add_listener(self._on_root_done)
        self.scheduler.enqueue(root, 0)
        return root

    def _on_root_done(self, task: Task) -> None:
        self._root_done = True
        # Application completion: release throttling, wake spinners,
        # restore full duty everywhere (paper Section IV wake conditions).
        self.scheduler.release_throttle()
        if self._stop_engine_on_done:
            self.engine.stop()

    @property
    def root_done(self) -> bool:
        """True once the current root task has completed."""
        return self._root_done

    def run(self, gen: TaskGen, *, label: str = "main",
            time_limit_s: float = DEFAULT_TIME_LIMIT_S) -> RunResult:
        """Execute a program (root task generator) to completion."""
        start_time = self.engine.now
        start_energy = [self.node.energy_j(s) for s in range(self.machine.sockets)]
        root = self.spawn_root(gen, label)

        self.engine.run(until=start_time + time_limit_s)

        if not root.done:
            # Distinguish a genuine timeout (live events remain beyond the
            # bound) from a drained queue (nothing can ever run again).
            if self.engine.peek_time() is not None:
                raise SimulationError(
                    f"program exceeded time limit of {time_limit_s} simulated seconds"
                )
            sched = self.scheduler
            spinning = sum(len(s.spinning_workers) for s in sched.shepherds)
            raise DeadlockError(
                f"no runnable work but root task {root.label!r} incomplete: "
                f"{root.pending_children} pending child(ren), queue depths "
                f"{sched.queue_depths()}, {spinning} spinning worker(s)"
            )

        elapsed = self.engine.now - start_time
        energy = [
            self.node.energy_j(s) - start_energy[s]
            for s in range(self.machine.sockets)
        ]
        sched = self.scheduler
        return RunResult(
            result=root.result,
            elapsed_s=elapsed,
            energy_j_sockets=energy,
            avg_power_w=(sum(energy) / elapsed) if elapsed > 0 else 0.0,
            final_temps_degc=[t.temp_degc for t in self.node.thermal],
            tasks_spawned=sched.spawn_count,
            tasks_completed=sched.completed_count,
            steals=sum(w.steals for w in sched.workers),
            spin_entries=sched.spin_entries,
            throttle_activations=sched.throttle_activations,
            throttle_deactivations=sched.throttle_deactivations,
        )

    # ------------------------------------------------------------------
    # region boundary notifications (throttle wake conditions)
    # ------------------------------------------------------------------
    def notify_region_boundary(self) -> None:
        """Signal a parallel region/loop termination.

        Spinning workers re-check the throttle gate here — one of the
        paper's four spin-exit conditions.
        """
        self.scheduler.wake_spinners()

    @property
    def num_threads(self) -> int:
        """Worker thread count of this runtime instance."""
        return self.config.num_threads
