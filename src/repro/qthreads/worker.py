"""Worker pthreads: one per simulated core, pinned.

A worker drives task generators: it pops a task from its shepherd's LIFO
queue (stealing FIFO from other shepherds when empty), advances the
generator, and translates yielded operations into machine actions —
work segments assigned to its core, child spawns, blocking on taskwait or
FEBs.

Runtime overheads (spawn, steal, queue operations) are configured in
cycles, converted to seconds once by the scheduler, and folded into the
next work segment the worker issues, so they cost simulated time and
energy on the core that incurred them without doubling the event count.

The MAESTRO throttle path (Section IV): when a worker looks for new work
while throttling is active and its shepherd is over its limit, it enters
a spin loop — the core is clocked but idle, duty-cycled down to 1/32 via
an ``IA32_CLOCK_MODULATION`` MSR write (which takes effect after the
modelled actuation latency, so a freshly-throttled core briefly spins at
full power, exactly as real hardware does).  It leaves the spin loop on
throttle deactivation, parallel region/loop termination, or application
completion, re-checking the throttle condition each time.
"""

from __future__ import annotations

import enum
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import SchedulerError
from repro.hw.core import Segment
from repro.hw.msr import IA32_CLOCK_MODULATION, encode_clock_modulation
from repro.qthreads.api import (
    Compute,
    FebReadFE,
    FebReadFF,
    FebWriteEF,
    FebWriteF,
    RegionBoundary,
    Spawn,
    Taskwait,
    YieldTask,
)
from repro.qthreads.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qthreads.scheduler import Scheduler
    from repro.qthreads.shepherd import Shepherd

_new_tuple = tuple.__new__

#: Runtime-bookkeeping segments touch queue/task metadata: mostly cache
#: traffic, modelled as mildly memory-bound work.
_OVERHEAD_MEM_FRACTION = 0.2

#: Pending overhead below this is carried forward rather than flushed as
#: its own segment when the worker idles (avoids picosecond segments).
_FLUSH_THRESHOLD_S = 1e-7


class WorkerState(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    SPINNING = "spinning"


class Worker:
    """One worker pthread pinned to one simulated core."""

    def __init__(self, core_index: int, shepherd: "Shepherd", scheduler: "Scheduler") -> None:
        self.core_index = core_index
        self.shepherd = shepherd
        self.scheduler = scheduler
        self.state = WorkerState.IDLE
        self.current: Optional[Task] = None
        #: Accumulated runtime overhead not yet charged to the core, s.
        self.pending_overhead_s = 0.0
        # -- stats ------------------------------------------------------
        self.tasks_run = 0
        self.segments_issued = 0
        self.steals = 0
        self.spin_entries = 0

    # ------------------------------------------------------------------
    # overhead accounting
    # ------------------------------------------------------------------
    def charge_cycles(self, cycles: float) -> None:
        """Accumulate runtime overhead to be folded into the next segment."""
        self.pending_overhead_s += cycles / self.scheduler.frequency_hz

    def _merge_overhead(self, segment: Segment) -> Segment:
        """Fold pending overhead into a work segment (weighted mem mix)."""
        ovh = self.pending_overhead_s
        if ovh <= 0.0:
            return segment
        self.pending_overhead_s = 0.0
        total = segment.solo_seconds + ovh
        mem = (
            segment.solo_seconds * segment.mem_fraction
            + ovh * _OVERHEAD_MEM_FRACTION
        ) / total
        # No re-validation: ``segment`` was validated when it was built,
        # ``total`` is finite and positive (``ovh > 0``), and ``mem`` is a
        # convex combination of values in [0, 1], so it stays in [0, 1].
        return _new_tuple(
            Segment,
            (total, mem, segment.power_scale, segment.contention_exponent,
             segment.coherence_penalty, segment.tag),
        )

    # ------------------------------------------------------------------
    # the seek / run / advance machinery
    # ------------------------------------------------------------------
    def seek(self) -> None:
        """Look for work: the paper's 'thread initiation point'.

        Order of checks mirrors the MAESTRO design: (1) throttle gate,
        (2) flush outstanding bookkeeping work, (3) local pop, (4) steal,
        (5) idle.
        """
        if self.state is not WorkerState.IDLE and self.current is not None:
            raise SchedulerError(f"worker {self.core_index} sought work while running")

        sched = self.scheduler
        self.shepherd.idle_workers.discard(self)

        # (1) throttle gate
        if sched.throttle_active and self.shepherd.over_limit:
            self._enter_spin()
            return

        # (2) flush accumulated overhead before parking
        if self.pending_overhead_s >= _FLUSH_THRESHOLD_S:
            seg = self._merge_overhead(Segment(0.0, 0.0, tag="overhead-flush"))
            self.state = WorkerState.RUNNING
            self.segments_issued += 1
            sched.node.assign(self.core_index, seg, on_complete=self._on_segment_done)
            return

        # (3) local LIFO pop
        task = self.shepherd.pop_local()
        if task is not None:
            self.pending_overhead_s += sched.queue_op_s
            self._run_task(task)
            return

        # (4) steal, FIFO from a random victim order
        task = sched.steal_for(self)
        if task is not None:
            self.steals += 1
            self.pending_overhead_s += sched.steal_overhead_s
            self._run_task(task)
            return

        # (5) idle
        self.state = WorkerState.IDLE
        self.current = None
        self.shepherd.idle_workers.add(self)

    def _run_task(self, task: Task) -> None:
        task.state = TaskState.RUNNING
        task.shepherd_hint = self.shepherd.sid
        self.current = task
        self.state = WorkerState.RUNNING
        self.tasks_run += 1
        value, task.resume_value = task.resume_value, None
        self._advance(value)

    def _on_segment_done(self) -> None:
        """Node callback: the core finished its segment."""
        if self.current is None:
            # Overhead flush completed; look for real work again.
            self.state = WorkerState.IDLE
            self.seek()
            return
        self._advance(None)

    def _advance(self, value: Any) -> None:
        """Drive the current task's generator until it blocks or computes."""
        task = self.current
        assert task is not None
        sched = self.scheduler
        while True:
            try:
                op = task.gen.send(value)
            except StopIteration as stop:
                self._finish_task(task, stop.value)
                return
            value = None

            # Work is by far the most common operation: one type check
            # covers both spellings without re-wrapping a bare segment.
            kind = type(op)
            if kind is Segment or kind is Compute:
                seg = self._merge_overhead(op if kind is Segment else op.segment)
                self.segments_issued += 1
                sched.node.assign(self.core_index, seg, on_complete=self._on_segment_done)
                return

            if isinstance(op, Spawn):
                child = Task(op.gen, parent=task, label=op.label)
                task.pending_children += 1
                task.children_spawned += 1
                self.pending_overhead_s += sched.spawn_overhead_s
                sched.spawn_count += 1
                sched.enqueue(child, self.shepherd.sid)
                value = child
                continue

            if isinstance(op, Taskwait):
                if task.pending_children > 0:
                    task.state = TaskState.BLOCKED
                    task.waiting_children = True
                    self._park_and_seek()
                    return
                continue

            if isinstance(op, RegionBoundary):
                sched.wake_spinners()
                continue

            if isinstance(op, YieldTask):
                task.state = TaskState.QUEUED
                self.pending_overhead_s += sched.queue_op_s
                # Behind the local work, or a LIFO pop hands it right back.
                sched.enqueue(task, self.shepherd.sid, cold=True)
                self._park_and_seek()
                return

            if isinstance(op, FebWriteF):
                op.feb.try_write(op.value, require_empty=False)
                sched.feb_settle(op.feb)
                continue

            if isinstance(op, FebWriteEF):
                if op.feb.try_write(op.value, require_empty=True):
                    sched.feb_settle(op.feb)
                    continue
                task.state = TaskState.BLOCKED
                op.feb.waiting_writers.append((task, op.value))
                self._park_and_seek()
                return

            if isinstance(op, (FebReadFF, FebReadFE)):
                consume = isinstance(op, FebReadFE)
                ok, feb_value = op.feb.try_read(consume=consume)
                if ok:
                    if consume:
                        sched.feb_settle(op.feb)
                    value = feb_value
                    continue
                task.state = TaskState.BLOCKED
                op.feb.waiting_readers.append((task, consume))
                self._park_and_seek()
                return

            raise SchedulerError(f"task {task.tid} yielded unknown operation {op!r}")

    def _park_and_seek(self) -> None:
        """Detach from the current (blocked/requeued) task and find more work."""
        self.current = None
        self.state = WorkerState.IDLE
        self.seek()

    def _finish_task(self, task: Task, result: Any) -> None:
        sched = self.scheduler
        sched.completed_count += 1
        self.pending_overhead_s += sched.queue_op_s
        parent = task.parent
        task.mark_done(result)
        if parent is not None:
            parent.pending_children -= 1
            if parent.pending_children == 0 and parent.waiting_children:
                parent.waiting_children = False
                parent.state = TaskState.QUEUED
                sched.enqueue(parent, parent.shepherd_hint)
        self._park_and_seek()

    # ------------------------------------------------------------------
    # MAESTRO spin loop
    # ------------------------------------------------------------------
    def _enter_spin(self) -> None:
        sched = self.scheduler
        self.state = WorkerState.SPINNING
        self.current = None
        self.shepherd.spinning_workers.add(self)
        self.spin_entries += 1
        sched.spin_entries += 1
        # Duty-cycle the core down via its clock-modulation MSR.  The node
        # models the actuation latency, so the core spins at full power
        # for ~250 memory operations before the modulation takes effect.
        sched.node.msr.write_core(
            self.core_index,
            IA32_CLOCK_MODULATION,
            encode_clock_modulation(sched.spin_duty),
            privileged=True,
        )
        sched.node.set_spin(self.core_index)
        self.pending_overhead_s += sched.queue_op_s

    def wake_from_spin(self) -> None:
        """Exit the spin loop (throttle off / region end / app end).

        Restores full duty via the MSR (again with actuation latency — the
        first post-spin work briefly runs modulated) and re-enters the
        seek path, which may legitimately re-throttle the worker if the
        flag is still set and the shepherd remains over its limit.
        """
        if self.state is not WorkerState.SPINNING:
            return
        sched = self.scheduler
        self.shepherd.spinning_workers.discard(self)
        sched.node.msr.write_core(
            self.core_index,
            IA32_CLOCK_MODULATION,
            encode_clock_modulation(1.0),
            privileged=True,
        )
        sched.node.set_idle(self.core_index)
        self.state = WorkerState.IDLE
        self.seek()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Worker(core={self.core_index}, {self.state.value}, task={self.current})"
