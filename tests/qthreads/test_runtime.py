"""Runtime end-to-end: tasks, stealing, blocking, throttling hooks."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.qthreads import (
    RegionBoundary,
    Spawn,
    Taskwait,
    Work,
    YieldTask,
)
from tests.conftest import make_runtime


def fib_program(n):
    def fib(m):
        if m < 2:
            yield Work(0.001)
            return m
        a = yield Spawn(fib(m - 1))
        b = yield Spawn(fib(m - 2))
        yield Taskwait()
        return a.result + b.result
    return fib(n)


def test_recursive_tasks_compute_correctly():
    rt = make_runtime(16)
    result = rt.run(fib_program(10))
    assert result.result == 55
    assert result.tasks_spawned > 100
    assert result.tasks_completed == result.tasks_spawned + 1  # + root


def test_parallel_speedup_and_stealing():
    t = {}
    for threads in (1, 16):
        rt = make_runtime(threads)
        res = rt.run(fib_program(12))
        t[threads] = res.elapsed_s
        if threads == 16:
            assert res.steals > 0  # cross-socket stealing happened
    assert t[1] / t[16] > 8.0


def test_determinism_same_seed():
    def once():
        rt = make_runtime(16, seed=3)
        res = rt.run(fib_program(11))
        return (res.elapsed_s, res.energy_j, res.steals)

    assert once() == once()


def test_work_segments_cost_energy():
    rt = make_runtime(4)

    def program():
        yield Work(1.0)
        return "done"

    res = rt.run(program())
    assert res.result == "done"
    assert res.elapsed_s >= 1.0
    assert res.energy_j > 40.0  # at least idle power for 1 s


def test_taskwait_without_children_is_noop():
    rt = make_runtime(2)

    def program():
        yield Taskwait()
        yield Work(0.01)
        return 1

    assert rt.run(program()).result == 1


def test_yield_requeues_task():
    rt = make_runtime(1)
    order = []

    def child(name):
        yield Work(0.001)
        order.append(name)
        return name

    def program():
        h = yield Spawn(child("spawned"))
        yield YieldTask()  # let the child run on our single worker
        order.append("resumed")
        yield Taskwait()
        return h.result

    res = rt.run(program())
    assert res.result == "spawned"
    assert order == ["spawned", "resumed"]


def test_deadlock_detection(monkeypatch):
    """A spawned child that never reaches a queue strands its parent."""
    rt = make_runtime(2)
    enqueue = rt.scheduler.enqueue

    def drop_children(task, shepherd_id, *, cold=False):
        if task.parent is None:
            enqueue(task, shepherd_id, cold=cold)

    monkeypatch.setattr(rt.scheduler, "enqueue", drop_children)

    def lost():
        yield Work(0.01)

    def program():
        yield Spawn(lost(), label="lost")
        yield Taskwait()

    with pytest.raises(DeadlockError) as err:
        rt.run(program(), label="stuck-root")
    message = str(err.value)
    assert "root task 'stuck-root' incomplete: 1 pending child" in message
    assert "queue depths [0, 0], 0 spinning worker" in message


def test_time_limit_enforced():
    rt = make_runtime(1)

    def program():
        yield Work(100.0)
        return None

    with pytest.raises(SimulationError):
        rt.run(program(), time_limit_s=1.0)


def test_region_boundary_is_noop_without_throttling():
    rt = make_runtime(2)

    def program():
        yield Work(0.01)
        yield RegionBoundary()
        yield Work(0.01)
        return "ok"

    assert rt.run(program()).result == "ok"


def test_runtime_rejects_second_root_while_running():
    rt = make_runtime(2)
    rt.spawn_root(fib_program(5))
    with pytest.raises(SimulationError):
        rt.spawn_root(fib_program(5))


def test_sequential_programs_on_one_runtime():
    rt = make_runtime(4)
    r1 = rt.run(fib_program(8))
    r2 = rt.run(fib_program(8))
    assert r1.result == r2.result == 21


def test_spawn_overhead_charged():
    """Spawning has a cost: many tiny tasks run slower than one lump."""
    rt_many = make_runtime(1)

    def many():
        def leaf():
            yield Work(1e-5)
            return 1
        handles = []
        for _ in range(200):
            handle = yield Spawn(leaf())
            handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    def lump():
        yield Work(200 * 1e-5)
        return 200

    t_many = rt_many.run(many()).elapsed_s
    rt_lump = make_runtime(1)
    t_lump = rt_lump.run(lump()).elapsed_s
    assert t_many > t_lump


def test_throttle_limits_active_workers():
    rt = make_runtime(16)

    def chunk():
        yield Work(0.05, mem_fraction=0.5)
        return 1

    def program():
        # First phase: get everyone busy.
        handles = []
        for _ in range(64):
            handle = yield Spawn(chunk())
            handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    rt.engine.schedule(0.01, lambda: rt.scheduler.apply_throttle(12))
    res = rt.run(program())
    assert res.result == 64
    assert res.spin_entries > 0
    # Application completion released every spinner.
    assert rt.node.spinning_core_count == 0


def test_release_throttle_wakes_spinners():
    rt = make_runtime(16)

    def chunk():
        yield Work(0.05)
        return 1

    def program():
        handles = []
        for _ in range(200):
            handle = yield Spawn(chunk())
            handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    rt.engine.schedule(0.01, lambda: rt.scheduler.apply_throttle(8))
    rt.engine.schedule(0.30, rt.scheduler.release_throttle)
    res = rt.run(program())
    assert res.result == 200
    assert res.throttle_activations == 1
    assert res.throttle_deactivations >= 1
