"""Runtime end-to-end: tasks, stealing, blocking, throttling hooks."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.qthreads import (
    Barrier,
    Feb,
    FebReadFE,
    FebReadFF,
    FebWriteEF,
    FebWriteF,
    Future,
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


def test_feb_write_then_read():
    rt = make_runtime(4)
    feb = Feb(name="x")

    def producer():
        yield Work(0.01)
        yield FebWriteEF(feb, 42)
        return None

    def program():
        yield Spawn(producer())
        value = yield FebReadFF(feb)
        yield Taskwait()
        return value

    assert rt.run(program()).result == 42


def test_feb_readfe_consumes_and_unblocks_writer():
    rt = make_runtime(4)
    feb = Feb(name="slot")
    log = []

    def producer(value):
        yield FebWriteEF(feb, value)  # second producer must wait for empty
        log.append(f"wrote{value}")
        return None

    def consumer():
        value = yield FebReadFE(feb)
        log.append(f"took{value}")
        return value

    def program():
        yield Spawn(producer(1))
        yield Spawn(producer(2))
        c1 = yield Spawn(consumer())
        c2 = yield Spawn(consumer())
        yield Taskwait()
        return sorted([c1.result, c2.result])

    assert rt.run(program()).result == [1, 2]


def test_febwritef_overwrites():
    rt = make_runtime(2)
    feb = Feb()

    def program():
        yield FebWriteF(feb, "a")
        yield FebWriteF(feb, "b")
        value = yield FebReadFF(feb)
        return value

    assert rt.run(program()).result == "b"



def test_febwritef_wakes_blocked_reader():
    rt = make_runtime(2)
    gate = Feb(name="gate")

    def waiter():
        value = yield FebReadFF(gate)  # parks: the word starts empty
        return value

    def program():
        handle = yield Spawn(waiter())
        yield Work(0.005)
        yield FebWriteF(gate, 42)
        yield Taskwait()
        return handle.result

    assert rt.run(program()).result == 42


def test_feb_pipeline_preserves_order():
    """One slot, written EF and consumed FE, hands values over in order."""
    rt = make_runtime(4)
    slot = Feb(name="slot")
    consumed = []

    def producer():
        for i in range(5):
            yield FebWriteEF(slot, i)
        return None

    def consumer():
        for _ in range(5):
            value = yield FebReadFE(slot)
            consumed.append(value)
        return len(consumed)

    def program():
        yield Spawn(producer())
        handle = yield Spawn(consumer())
        yield Taskwait()
        return handle.result

    assert rt.run(program()).result == 5
    assert consumed == [0, 1, 2, 3, 4]

def test_deadlock_detection():
    rt = make_runtime(2)
    feb = Feb(name="never-filled")

    def program():
        value = yield FebReadFF(feb)
        return value

    with pytest.raises(DeadlockError):
        rt.run(program())


def test_time_limit_enforced():
    rt = make_runtime(1)

    def program():
        yield Work(100.0)
        return None

    with pytest.raises(SimulationError):
        rt.run(program(), time_limit_s=1.0)


def test_barrier_releases_all():
    rt = make_runtime(8)
    barrier = Barrier(4, name="b")
    released = []

    def member(i):
        yield Work(0.001 * (i + 1))
        yield from barrier.wait()
        released.append(i)
        return i

    def program():
        handles = []
        for i in range(4):
            handle = yield Spawn(member(i))
            handles.append(handle)
        yield Taskwait()
        return [h.result for h in handles]

    res = rt.run(program())
    assert sorted(res.result) == [0, 1, 2, 3]
    assert len(released) == 4


def test_barrier_overfill_rejected():
    from repro.errors import SchedulerError

    barrier = Barrier(1)
    gen = barrier.wait()
    next(gen, None)
    with pytest.raises(SchedulerError):
        list(barrier.wait())


def test_future_set_get():
    rt = make_runtime(4)
    future = Future(name="f")

    def producer():
        yield Work(0.01)
        yield from future.set(123)
        return None

    def program():
        yield Spawn(producer())
        value = yield from future.get()
        yield Taskwait()
        return value

    assert rt.run(program()).result == 123


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
