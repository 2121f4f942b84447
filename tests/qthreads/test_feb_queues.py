"""The Sherwood work queues and task bookkeeping."""

import pytest

from repro.qthreads.queues import WorkQueue
from repro.qthreads.task import Task


def _task(label="t"):
    def gen():
        yield None
    return Task(gen(), label=label)


# --------------------------------------------------------------- queues
def test_queue_lifo_local_pop():
    q = WorkQueue()
    a, b, c = _task("a"), _task("b"), _task("c")
    for t in (a, b, c):
        q.push(t)
    assert q.pop_local() is c
    assert q.pop_local() is b
    assert q.pop_local() is a
    assert q.pop_local() is None


def test_queue_fifo_steal():
    q = WorkQueue()
    a, b, c = _task("a"), _task("b"), _task("c")
    for t in (a, b, c):
        q.push(t)
    assert q.pop_steal() is a  # oldest first — largest untouched subtree
    assert q.pop_local() is c
    assert q.pop_steal() is b


def test_queue_counters():
    q = WorkQueue()
    q.push(_task())
    q.push(_task())
    q.pop_local()
    q.pop_steal()
    assert (q.pushes, q.pops, q.steals_out) == (2, 1, 1)
    assert q.empty


def test_queue_len():
    q = WorkQueue()
    assert len(q) == 0
    q.push(_task())
    assert len(q) == 1


# ----------------------------------------------------------------- task
def test_task_double_completion_rejected():
    from repro.errors import SchedulerError

    t = _task()
    t.mark_done(1)
    with pytest.raises(SchedulerError):
        t.mark_done(2)


def test_task_listener_fires_on_done():
    t = _task()
    seen = []
    t.add_listener(lambda task: seen.append(task.result))
    t.mark_done(99)
    assert seen == [99]


def test_task_listener_fires_immediately_if_already_done():
    t = _task()
    t.mark_done(5)
    seen = []
    t.add_listener(lambda task: seen.append(task.result))
    assert seen == [5]


def test_task_ids_are_unique():
    assert _task().tid != _task().tid
