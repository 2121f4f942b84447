"""Hierarchical (Sherwood) scheduler with MAESTRO throttling hooks.

Owns the shepherds and workers, routes task enqueues and wake-ups, picks
steal victims, settles FEB wait queues, and exposes the two control knobs
the throttle controller drives:

* :meth:`Scheduler.apply_throttle` — engage shepherd-local active-thread
  limits; workers discover them at their next thread-initiation point;
* :meth:`Scheduler.release_throttle` / :meth:`Scheduler.wake_spinners` —
  release spinning workers (throttle deactivation, parallel region/loop
  termination, application completion — the paper's four wake conditions).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.config import MachineConfig, RuntimeConfig
from repro.errors import SchedulerError
from repro.qthreads.feb import Feb
from repro.qthreads.shepherd import Shepherd
from repro.qthreads.task import Task, TaskState
from repro.qthreads.worker import Worker
from repro.sim.engine import Engine
from repro.sim.events import Priority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.node import Node


class Scheduler:
    """Shepherd collection + work-stealing + throttling state."""

    def __init__(
        self,
        engine: Engine,
        node: "Node",
        machine: MachineConfig,
        runtime_config: RuntimeConfig,
        rng: np.random.Generator,
    ) -> None:
        runtime_config.validate(machine)
        self.engine = engine
        self.node = node
        self.machine = machine
        self.config = runtime_config
        self.rng = rng
        self.frequency_hz = machine.frequency_hz
        self.spin_duty = runtime_config.spin_duty
        # Per-operation runtime costs, configured in cycles and charged
        # in seconds: one division here instead of one per operation.
        freq = self.frequency_hz
        self.spawn_overhead_s = runtime_config.spawn_overhead_cycles / freq
        self.steal_overhead_s = runtime_config.steal_overhead_cycles / freq
        self.queue_op_s = runtime_config.queue_op_cycles / freq

        # Build shepherds: one per (socket x shepherds_per_socket), workers
        # distributed round-robin over the cores of the matching socket.
        self.shepherds: list[Shepherd] = []
        per_socket = runtime_config.shepherds_per_socket
        for socket in range(machine.sockets):
            for k in range(per_socket):
                self.shepherds.append(Shepherd(len(self.shepherds), socket))

        self.workers: list[Worker] = []
        threads = runtime_config.num_threads
        # Scatter pinning: thread i goes to socket i % sockets, matching
        # how the OS spreads unpinned OpenMP threads on the paper's blade
        # (without it, 8 threads would pile onto one socket and saturate
        # its memory system — the paper's 8-thread points clearly don't).
        sockets = machine.sockets
        for i in range(threads):
            socket = i % sockets
            local = i // sockets
            core_index = socket * machine.cores_per_socket + local
            shep_idx = socket * per_socket + (local % per_socket)
            shepherd = self.shepherds[shep_idx]
            worker = Worker(core_index, shepherd, self)
            shepherd.attach(worker)
            shepherd.idle_workers.add(worker)
            self.workers.append(worker)

        #: Workers in core-index order: the dispatch wake order.
        self._workers_by_core = sorted(self.workers, key=lambda w: w.core_index)

        self.throttle_active = False
        self._dispatch_pending = False

        # -- stats ------------------------------------------------------
        self.spawn_count = 0
        self.completed_count = 0
        self.spin_entries = 0
        self.throttle_activations = 0
        self.throttle_deactivations = 0

    # ------------------------------------------------------------------
    # enqueue / dispatch
    # ------------------------------------------------------------------
    def enqueue(self, task: Task, shepherd_id: int, *, cold: bool = False) -> None:
        """Queue a task on a shepherd and arrange for idle workers to run it."""
        if task.state is TaskState.DONE:
            raise SchedulerError(f"cannot enqueue completed task {task.tid}")
        task.state = TaskState.QUEUED
        self.shepherds[shepherd_id % len(self.shepherds)].enqueue(task, cold=cold)
        self._request_dispatch()

    def _request_dispatch(self) -> None:
        """Schedule one deferred dispatch pass (coalesces bursts of spawns)."""
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.engine.schedule(0.0, self._dispatch, priority=Priority.SCHEDULER, label="dispatch")

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        # Most passes find every worker busy or spinning: they would wake
        # nobody, so return before counting work or ordering workers.
        for shepherd in self.shepherds:
            if shepherd.idle_workers:
                break
        else:
            return
        work = sum(len(s.queue) for s in self.shepherds)
        if work == 0:
            return
        # Wake idle workers, preferring those whose own shepherd has work
        # (locality), then any other idle worker (they will steal).
        # Ordered by core index so wake order is deterministic (Python
        # sets iterate in id-dependent order).  Both lists are taken
        # before any seek() moves a worker or drains a queue.
        workers = self._workers_by_core
        local_first = [
            w for w in workers if w in w.shepherd.idle_workers and w.shepherd.queue
        ]
        local_first += [
            w for w in workers if w in w.shepherd.idle_workers and not w.shepherd.queue
        ]
        for worker in local_first:
            if work <= 0:
                break
            if worker in worker.shepherd.idle_workers:
                worker.seek()
                work -= 1

    # ------------------------------------------------------------------
    # stealing
    # ------------------------------------------------------------------
    def steal_for(self, thief: Worker) -> Optional[Task]:
        """Steal the oldest task from some other shepherd, random victim order.

        A lone candidate is robbed directly: ``permutation(1)`` draws
        nothing from the generator, so skipping it leaves the stream
        exactly where it was.  With the default one shepherd per socket
        on two sockets, every steal takes this path.
        """
        if len(self.shepherds) <= 1:
            return None
        candidates = [s for s in self.shepherds if s is not thief.shepherd and len(s.queue) > 0]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0].pop_steal()
        order = self.rng.permutation(len(candidates))
        for idx in order:
            task = candidates[int(idx)].pop_steal()
            if task is not None:
                return task
        return None

    # ------------------------------------------------------------------
    # FEB settlement
    # ------------------------------------------------------------------
    def feb_settle(self, feb: Feb) -> None:
        """Wake FEB waiters enabled by a state transition.

        One fill wakes every pending ``readFF`` plus at most one
        ``readFE``; the resulting empty admits one parked ``writeEF``,
        which may cascade further — hence the loop.
        """
        while True:
            if feb.full and feb.waiting_readers:
                task, consume = feb.waiting_readers.popleft()
                ok, value = feb.try_read(consume=consume)
                assert ok, "FEB invariant: read from full word must succeed"
                task.resume_value = value
                self.enqueue(task, task.shepherd_hint)
                continue
            if not feb.full and feb.waiting_writers:
                task, value = feb.waiting_writers.popleft()
                ok = feb.try_write(value, require_empty=True)
                assert ok, "FEB invariant: write to empty word must succeed"
                task.resume_value = None
                self.enqueue(task, task.shepherd_hint)
                continue
            return

    # ------------------------------------------------------------------
    # MAESTRO throttling control surface
    # ------------------------------------------------------------------
    def apply_throttle(self, total_active_threads: int) -> None:
        """Engage throttling with ``total_active_threads`` allowed node-wide.

        The budget is split evenly across shepherds (the paper throttles
        per shepherd: each maintains its own counter and limit).  Workers
        observe the limit at their next thread-initiation point; nothing
        is preempted.
        """
        if total_active_threads <= 0:
            raise SchedulerError("throttle limit must be positive")
        per = max(1, total_active_threads // len(self.shepherds))
        for shepherd in self.shepherds:
            shepherd.throttle_limit = min(per, len(shepherd.workers))
        if not self.throttle_active:
            self.throttle_active = True
            self.throttle_activations += 1

    def release_throttle(self) -> None:
        """Disable throttling and wake all spinning workers."""
        if self.throttle_active:
            self.throttle_active = False
            self.throttle_deactivations += 1
        for shepherd in self.shepherds:
            shepherd.throttle_limit = len(shepherd.workers)
        self.wake_spinners()

    def wake_spinners(self) -> None:
        """Release all spinning workers to re-check the throttle gate.

        Called on throttle deactivation, parallel region termination,
        parallel loop termination, and application completion — the four
        conditions the paper's spin loop watches.
        """
        for shepherd in self.shepherds:
            for worker in sorted(shepherd.spinning_workers, key=lambda w: w.core_index):
                worker.wake_from_spin()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def active_worker_total(self) -> int:
        """Workers not spinning, across all shepherds."""
        return sum(s.active_count for s in self.shepherds)

    def blocked_tasks(self) -> list[Task]:
        """Tasks parked on FEBs or taskwait (best-effort, for diagnostics)."""
        seen: list[Task] = []
        for shepherd in self.shepherds:
            for worker in shepherd.workers:
                if worker.current is not None and worker.current.state is TaskState.BLOCKED:
                    seen.append(worker.current)
        return seen

    def queue_depths(self) -> list[int]:
        """Current queue depth per shepherd."""
        return [len(s.queue) for s in self.shepherds]
