"""Stateful/property tests: queues against a reference model, random
task graphs against global invariants."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.qthreads import Spawn, Taskwait, Work
from repro.qthreads.queues import WorkQueue
from repro.qthreads.task import Task
from tests.conftest import make_runtime


def _dummy_task(n):
    def gen():
        yield Work(0.0)
    t = Task(gen(), label=str(n))
    return t


class QueueModel(RuleBasedStateMachine):
    """WorkQueue vs a plain list model: LIFO local, FIFO steal."""

    def __init__(self):
        super().__init__()
        self.queue = WorkQueue()
        self.model: list[Task] = []
        self.counter = 0

    @rule()
    def push(self):
        task = _dummy_task(self.counter)
        self.counter += 1
        self.queue.push(task)
        self.model.append(task)

    @rule()
    def push_cold(self):
        task = _dummy_task(self.counter)
        self.counter += 1
        self.queue.push_cold(task)
        self.model.insert(0, task)

    @rule()
    def pop_local(self):
        got = self.queue.pop_local()
        expected = self.model.pop() if self.model else None
        assert got is expected

    @rule()
    def pop_steal(self):
        got = self.queue.pop_steal()
        expected = self.model.pop(0) if self.model else None
        assert got is expected

    @invariant()
    def same_length(self):
        assert len(self.queue) == len(self.model)


TestQueueModel = QueueModel.TestCase
TestQueueModel.settings = settings(max_examples=30, stateful_step_count=30,
                                   deadline=None)


# ------------------------------------------------------ random task graphs
@st.composite
def tree_spec(draw):
    """A random small task tree: (children per node, depth, work scale)."""
    fanout = draw(st.integers(min_value=1, max_value=4))
    depth = draw(st.integers(min_value=1, max_value=4))
    mu = draw(st.floats(min_value=0.0, max_value=0.9))
    return fanout, depth, mu


@given(spec=tree_spec(), threads=st.sampled_from([1, 3, 8, 16]))
@settings(max_examples=20, deadline=None)
def test_random_task_trees_conserve_work_and_terminate(spec, threads):
    fanout, depth, mu = spec
    leaf_work = 0.002
    counted = []

    def node(d):
        if d == 0:
            yield Work(leaf_work, mem_fraction=mu)
            counted.append(1)
            return 1
        total = 0
        handles = []
        for _ in range(fanout):
            handle = yield Spawn(node(d - 1))
            handles.append(handle)
        yield Taskwait()
        for h in handles:
            total += h.result
        return total

    rt = make_runtime(threads)
    res = rt.run(node(depth))
    leaves = fanout ** depth
    assert res.result == leaves
    assert len(counted) == leaves
    work_done = sum(c.work_done_solo_seconds for c in rt.node.cores)
    # All leaf work executed (overheads add a little on top).
    assert work_done >= leaves * leaf_work * 0.999
    # Wall time is bounded below by the critical path and above by the
    # serial total (plus slack for contention/overhead).
    assert res.elapsed_s >= leaf_work * 0.999
    assert res.elapsed_s <= leaves * leaf_work * 40 + 0.5
