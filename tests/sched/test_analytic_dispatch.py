"""The analytic dispatch loop: its guard and the all-busy skip.

Policies may only choose an idle node; the analytic loop enforces that
contract with a :class:`~repro.errors.SimulationError` for a busy or an
unknown pick.  Because every policy must hold while all nodes are busy,
the loop does not ask one then: a counting wrapper proves ``select`` is
never called without an idle node, and that skipping those calls leaves
the result digest unchanged.
"""

from __future__ import annotations

import pytest

import repro.sched.analytic as analytic
from repro.errors import SimulationError
from repro.sched import SchedSpec, run_sched
from repro.sched.policy import make_policy

pytestmark = pytest.mark.sched

#: Arrivals every second against multi-second jobs: the queue fills and
#: both nodes stay busy for most of the run.
SATURATED = SchedSpec(profile="steady", policy="predicted", nodes=2,
                      budget_w=400.0, jobs=200, rate_jobs_per_s=1.0,
                      queue_depth=4, time_limit_s=1e9,
                      execution="analytic", seed=4)


class FixedNode:
    """Head of the queue onto one named node, busy or not."""

    def __init__(self, node: str) -> None:
        self.node = node

    def select(self, queue, nodes, state):
        return (0, self.node) if queue else None


class Counting:
    """Pass-through wrapper recording what each ``select`` call saw."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0
        self.all_busy_calls = 0
        self.deepest_queue = 0

    def select(self, queue, nodes, state):
        assert isinstance(nodes, tuple)
        self.calls += 1
        self.all_busy_calls += all(n.busy for n in nodes)
        self.deepest_queue = max(self.deepest_queue, len(queue))
        return self.inner.select(queue, nodes, state)


def run_with(monkeypatch, policy, spec=SATURATED):
    monkeypatch.setattr(analytic, "make_policy",
                        lambda name, model=None: policy)
    return run_sched(spec)


def test_a_busy_pick_raises(monkeypatch):
    with pytest.raises(SimulationError, match="chose busy node 'node0'"):
        run_with(monkeypatch, FixedNode("node0"))


def test_an_unknown_pick_raises(monkeypatch):
    with pytest.raises(SimulationError,
                       match="chose unknown node 'node9'"):
        run_with(monkeypatch, FixedNode("node9"))


def test_select_is_never_called_while_every_node_is_busy(monkeypatch):
    plain = run_sched(SATURATED)
    counting = Counting(make_policy(SATURATED.policy))
    wrapped = run_with(monkeypatch, counting)
    assert counting.calls > 0
    assert counting.all_busy_calls == 0
    # The queue backed up behind busy nodes, so the skip was exercised.
    assert counting.deepest_queue == SATURATED.queue_depth
    assert plain.rejected_count > 0
    assert wrapped.result_digest() == plain.result_digest()
