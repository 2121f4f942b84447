"""Worker and scheduler internals: overheads, stealing, shepherds."""

import numpy as np
import pytest

from repro.config import MachineConfig, RuntimeConfig
from repro.errors import SchedulerError
from repro.hw.core import Segment
from repro.qthreads import Compute, Runtime, Spawn, Taskwait, Work
from repro.qthreads.task import Task, TaskState
from repro.qthreads.worker import Worker, WorkerState
from tests.conftest import make_runtime


def test_charge_cycles_accumulates_and_merges():
    rt = make_runtime(1)
    worker = rt.scheduler.workers[0]
    worker.charge_cycles(2.7e9)  # exactly one second at nominal clock
    merged = worker._merge_overhead(Segment(1.0, mem_fraction=0.5))
    assert merged.solo_seconds == pytest.approx(2.0)
    # Memory mix is work-weighted: 1s at 0.5 + 1s at overhead mix 0.2.
    assert merged.mem_fraction == pytest.approx(0.35)
    assert worker.pending_overhead_s == 0.0


def test_merge_overhead_preserves_character():
    rt = make_runtime(1)
    worker = rt.scheduler.workers[0]
    worker.charge_cycles(1e6)
    seg = Segment(1.0, 0.4, power_scale=1.5, contention_exponent=2.0,
                  coherence_penalty=0.3, tag="x")
    merged = worker._merge_overhead(seg)
    assert merged.power_scale == 1.5
    assert merged.contention_exponent == 2.0
    assert merged.coherence_penalty == 0.3
    assert merged.tag == "x"


def test_zero_overhead_merge_is_identity():
    rt = make_runtime(1)
    worker = rt.scheduler.workers[0]
    seg = Segment(1.0, 0.4)
    assert worker._merge_overhead(seg) is seg


def test_scatter_pinning_layout():
    """Thread i runs on socket i % 2 (see DESIGN.md)."""
    rt = make_runtime(6)
    sockets = [rt.node.topology.socket_of(w.core_index)
               for w in rt.scheduler.workers]
    assert sockets == [0, 1, 0, 1, 0, 1]


def test_one_shepherd_per_socket_by_default():
    rt = make_runtime(16)
    assert len(rt.scheduler.shepherds) == 2
    for shepherd in rt.scheduler.shepherds:
        assert len(shepherd.workers) == 8
        assert shepherd.throttle_limit == 8


def test_single_thread_runtime_has_no_steals():
    rt = make_runtime(1)

    def program():
        def leaf():
            yield Work(0.001)
            return 1
        handles = []
        for _ in range(20):
            handle = yield Spawn(leaf())
            handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    res = rt.run(program())
    assert res.result == 20
    assert res.steals == 0


def test_cross_socket_stealing_balances_work():
    """Work spawned from one shepherd ends up executing on both sockets."""
    rt = make_runtime(16)

    def program():
        def leaf():
            yield Work(0.01)
            return 1
        handles = []
        for _ in range(64):
            handle = yield Spawn(leaf())
            handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    rt.run(program())
    busy = [core.segments_completed for core in rt.node.cores]
    socket0 = sum(busy[:8])
    socket1 = sum(busy[8:])
    assert socket0 > 0 and socket1 > 0
    assert abs(socket0 - socket1) < 30


def test_apply_throttle_splits_budget_across_shepherds():
    rt = make_runtime(16)
    rt.scheduler.apply_throttle(12)
    assert [s.throttle_limit for s in rt.scheduler.shepherds] == [6, 6]
    rt.scheduler.release_throttle()
    assert [s.throttle_limit for s in rt.scheduler.shepherds] == [8, 8]
    with pytest.raises(SchedulerError):
        rt.scheduler.apply_throttle(0)


def test_enqueue_completed_task_rejected():
    rt = make_runtime(2)

    def gen():
        yield Work(0.001)

    task = Task(gen())
    task.mark_done(None)
    with pytest.raises(SchedulerError):
        rt.scheduler.enqueue(task, 0)


def test_scheduler_queue_depths_and_active_total():
    rt = make_runtime(4)
    assert rt.scheduler.queue_depths() == [0, 0]
    assert rt.scheduler.active_worker_total == 4


def test_worker_initial_state():
    rt = make_runtime(2)
    for worker in rt.scheduler.workers:
        assert worker.state is WorkerState.IDLE
        assert worker.current is None
        assert worker in worker.shepherd.idle_workers


def test_overhead_flush_runs_before_idling():
    """Pending overhead above the flush threshold is executed as a real
    segment (it must cost simulated time and energy)."""
    rt = make_runtime(1)

    def program():
        def leaf():
            yield Work(1e-6)
            return 1
        # Many spawns accumulate overhead on the master.
        handles = []
        for _ in range(50):
            handle = yield Spawn(leaf())
            handles.append(handle)
        yield Taskwait()
        return len(handles)

    res = rt.run(program())
    total_work = sum(c.work_done_solo_seconds for c in rt.node.cores)
    # Executed work exceeds the raw 50 us of leaf work: the ~8 us of
    # spawn/queue overhead was charged to the core as real segments.
    assert total_work > 50 * 1e-6 * 1.15


def test_spin_entry_and_exit_paths():
    rt = make_runtime(16)

    def program():
        def leaf():
            yield Work(0.05, mem_fraction=0.3)
            return 1
        handles = []
        for _ in range(96):
            handle = yield Spawn(leaf())
            handles.append(handle)
        yield Taskwait()
        return len(handles)

    rt.engine.schedule(0.02, lambda: rt.scheduler.apply_throttle(8))
    rt.engine.schedule(0.15, rt.scheduler.release_throttle)
    res = rt.run(program())
    assert res.result == 96
    assert res.spin_entries >= 8
    # Spin time was accounted on the cores.
    assert sum(c.spin_seconds for c in rt.node.cores) > 0.05
    # And all workers are released at the end.
    for shepherd in rt.scheduler.shepherds:
        assert not shepherd.spinning_workers


def test_wake_from_spin_is_noop_for_non_spinners():
    rt = make_runtime(2)
    worker = rt.scheduler.workers[0]
    worker.wake_from_spin()  # must not blow up
    assert worker.state is WorkerState.IDLE


# ----------------------------------------------------------------------
# steal victim choice: the single-candidate shortcut draws nothing
# ----------------------------------------------------------------------
def _queued_task(label: str) -> Task:
    def body():
        yield Work(0.001)
    return Task(body(), label=label)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_permutation_of_one_draws_nothing(seed):
    """The fact the shortcut rests on: ``permutation(1)`` leaves the stream."""
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    assert list(rng.permutation(1)) == [0]
    assert rng.bit_generator.state == before


def test_single_candidate_steal_takes_oldest_without_drawing():
    rt = make_runtime(16)
    sched = rt.scheduler
    assert len(sched.shepherds) == 2
    thief = sched.shepherds[0].workers[0]
    victim = sched.shepherds[1]
    tasks = [_queued_task(f"t{i}") for i in range(3)]
    for task in tasks:
        victim.enqueue(task)
    before = sched.rng.bit_generator.state
    assert sched.steal_for(thief) is tasks[0]  # FIFO end: the oldest
    assert sched.rng.bit_generator.state == before
    assert len(victim.queue) == 2


def test_several_candidates_still_draw_victim_order():
    rt = Runtime(MachineConfig(), RuntimeConfig(num_threads=16, shepherds_per_socket=2))
    sched = rt.scheduler
    assert len(sched.shepherds) == 4
    thief = sched.shepherds[0].workers[0]
    oldest = []
    for shepherd in sched.shepherds[1:3]:
        first = _queued_task("first")
        shepherd.enqueue(first)
        shepherd.enqueue(_queued_task("second"))
        oldest.append(first)
    before = sched.rng.bit_generator.state
    stolen = sched.steal_for(thief)
    assert sched.rng.bit_generator.state != before
    assert stolen in oldest


def _issued_segments(op) -> list:
    """Segments a 1-thread runtime hands its node for a task yielding ``op``."""
    rt = make_runtime(1)
    issued = []
    assign = rt.node.assign

    def spy(core_index, segment, on_complete=None):
        issued.append(segment)
        assign(core_index, segment, on_complete)

    rt.node.assign = spy

    def program():
        yield op
        return 1

    rt.run(program())
    return issued


def test_bare_segment_and_compute_issue_the_same_segment():
    """Yielding ``seg`` or ``Compute(seg)`` hands the node one merged value."""
    seg = Segment(0.25, 0.4, power_scale=1.2, tag="w")
    bare = _issued_segments(seg)
    assert bare == _issued_segments(Compute(seg))
    # The first segment carries the spawn/queue overhead merged in.
    assert bare[0].solo_seconds > 0.25
    assert type(bare[0]) is Segment


# ----------------------------------------------------------------------
# dispatch: wake order, and passes that can wake nobody
# ----------------------------------------------------------------------
def _record_seeks(monkeypatch) -> list[int]:
    """Record the core of every worker ``seek`` wakes, then run it."""
    woken: list[int] = []
    seek = Worker.seek

    def recording_seek(worker):
        woken.append(worker.core_index)
        seek(worker)

    monkeypatch.setattr(Worker, "seek", recording_seek)
    return woken


def test_dispatch_wakes_local_queue_shepherds_first_in_core_order(monkeypatch):
    rt = make_runtime(16)
    sched = rt.scheduler
    local, other = sched.shepherds[1], sched.shepherds[0]
    # Two idle workers where the work is, three elsewhere; the rest busy.
    keep = {9, 12, 2, 5, 6}
    for shepherd in sched.shepherds:
        shepherd.idle_workers = {w for w in shepherd.idle_workers if w.core_index in keep}
    for i in range(4):
        local.enqueue(_queued_task(f"t{i}"))
    assert not other.queue
    woken = _record_seeks(monkeypatch)
    sched._dispatch()
    # One wake per queued task: the local shepherd's idle workers, then
    # the others (who steal), each group in core order.
    assert woken == [9, 12, 2, 5]
    assert not local.queue
    assert [w.core_index for w in other.idle_workers] == [6]


def _dispatch_state(sched):
    return (
        [list(s.queue._deque) for s in sched.shepherds],
        [(w.state, w.current, w.tasks_run, w.steals) for w in sched.workers],
        [set(s.idle_workers) for s in sched.shepherds],
        (sched.spawn_count, sched.completed_count, sched.spin_entries,
         sched.throttle_activations, sched.throttle_deactivations),
        sched.rng.bit_generator.state,
        len(sched.engine._heap),
    )


def test_dispatch_without_idle_workers_changes_nothing(monkeypatch):
    rt = make_runtime(16)
    sched = rt.scheduler
    for shepherd in sched.shepherds:
        shepherd.idle_workers.clear()
    sched.shepherds[0].enqueue(_queued_task("a"))
    sched.shepherds[1].enqueue(_queued_task("b"))
    sched.shepherds[1].enqueue(_queued_task("c"))
    before = _dispatch_state(sched)
    woken = _record_seeks(monkeypatch)
    sched._dispatch_pending = True
    sched._dispatch()
    assert woken == []
    assert sched._dispatch_pending is False
    assert _dispatch_state(sched) == before
