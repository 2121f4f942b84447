"""The node re-derives rates and power once per engine event.

Mutators (``assign``, state changes, duty commits, completions) only mark
sockets dirty and request a re-derivation; inside an engine callback the
request is deferred to the end of the event, outside ``Engine.run`` it is
eager.  These tests pin that contract and its exception safety.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_measurement
from repro.hw.core import CoreState, Segment
from repro.hw.node import Node
from repro.sim.engine import Engine


def _count_recomputes(node: Node) -> list[int]:
    """Wrap ``node._recompute`` to count calls made during event dispatch."""
    calls = [0]
    inner = node._recompute

    def counting() -> None:
        if node.engine.dispatching:
            calls[0] += 1
        inner()

    node._recompute = counting
    return calls


def _segments_on(node: Node) -> list[Segment]:
    return [
        Segment(0.5 + 0.01 * i, mem_fraction=(i % 4) / 4.0)
        for i in range(len(node.cores))
    ]


def _rederive_from_scratch(node: Node) -> list[tuple[float, float]]:
    """Rates a full, memo-free pass computes from the node's current state."""
    node._rate_dirty = [True] * node.config.sockets
    node._recompute_now = None
    node._recompute()
    return [(c.speed, c.mem_wall_fraction) for c in node.cores]


def test_sixteen_assigns_in_one_callback_rederive_once(engine, node):
    calls = _count_recomputes(node)
    segments = _segments_on(node)
    seen = {}

    def start_region():
        for i, seg in enumerate(segments):
            node.assign(i, seg)
        seen["pending_inside"] = node._flush_pending
        seen["calls_inside"] = calls[0]

    def probe(time, event):
        seen.setdefault("calls_after", calls[0])
        seen.setdefault("live_events", engine.pending)

    engine.schedule(0.0, start_region)
    engine.add_probe(probe)
    assert engine.step()
    assert seen == {
        "pending_inside": True,
        "calls_inside": 0,
        "calls_after": 1,
        "live_events": 1,  # exactly one segment-completion event
    }
    assert not node._flush_pending
    assert node._completion is not None and node._completion.active


def test_coalesced_rates_match_the_eager_path():
    """Deferred and eager mutation sequences land on bit-identical state."""

    def build(deferred: bool):
        eng = Engine()
        nd = Node(eng)

        def mutate():
            for i, seg in enumerate(_segments_on(nd)):
                nd.assign(i, seg)
            nd.set_duty(3, 0.5)
            nd.set_duty(12, 0.25)

        if deferred:
            eng.schedule(0.0, mutate)
            eng.step()
        else:
            mutate()
        return (
            [(c.speed, c.mem_wall_fraction) for c in nd.cores],
            list(nd._socket_power),
            nd._completion.time,
        )

    assert build(deferred=True) == build(deferred=False)


def test_mid_callback_queries_see_post_mutation_state():
    # Reference: the same mutations applied eagerly on an identical node.
    ref_engine = Engine()
    ref = Node(ref_engine)
    for i in range(8):
        ref.assign(i, Segment(1.0, mem_fraction=0.8))
    expected_power = ref.power_w(0)
    expected_mem = ref.memory_state(0)

    engine = Engine()
    node = Node(engine)
    seen = {}

    def callback():
        for i in range(8):
            node.assign(i, Segment(1.0, mem_fraction=0.8))
        seen["power"] = node.power_w(0)
        seen["mem"] = node.memory_state(0)

    engine.schedule(0.0, callback)
    engine.step()
    assert seen["power"] == expected_power
    assert seen["mem"] == expected_mem
    assert seen["mem"].demand > 0.0


def test_mutations_outside_run_are_eager(engine, node):
    calls = [0]
    inner = node._recompute

    def counting():
        calls[0] += 1
        inner()

    node._recompute = counting
    node.assign(0, Segment(1.0))
    assert calls[0] == 1
    assert not node._flush_pending
    assert node.cores[0].speed == 1.0
    assert engine.pending == 1
    node.set_spin(1, 0.5)
    node.set_duty(0, 0.5)
    assert calls[0] == 3
    assert node.cores[0].speed == pytest.approx(0.5)


def test_shared_engine_flushes_every_mutated_node():
    engine = Engine()
    nodes = [Node(engine), Node(engine)]
    flushed = []

    def callback():
        for nd in nodes:
            nd.assign(0, Segment(1.0))
            nd.assign(1, Segment(2.0, mem_fraction=0.5))
        assert all(nd._flush_pending for nd in nodes)

    def probe(time, event):
        flushed.append([nd._flush_pending for nd in nodes])

    engine.schedule(0.0, callback)
    engine.add_probe(probe)
    engine.step()
    assert flushed == [[False, False]]
    for nd in nodes:
        assert nd.cores[0].speed == 1.0
        assert nd._completion is not None and nd._completion.active
    assert engine.pending == 2
    engine.run()
    assert all(nd.busy_core_count == 0 for nd in nodes)


def test_raising_callback_leaves_no_flush_behind(engine, node):
    def boom():
        node.assign(0, Segment(1.0, mem_fraction=0.6))
        raise RuntimeError("callback failed after assign")

    engine.schedule(0.5, boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        engine.run()
    assert not node._flush_pending
    assert node.cores[0].speed > 0.0

    # Reuse the same engine and node: later mutations must re-derive.
    done = []
    engine.schedule(
        0.0,
        lambda: node.assign(1, Segment(1.0, mem_fraction=0.6),
                            on_complete=lambda: done.append(engine.now)),
    )
    engine.run(until=engine.now + 0.1)
    assert not node._flush_pending
    cached = [(c.speed, c.mem_wall_fraction) for c in node.cores]
    assert cached == _rederive_from_scratch(node)
    assert node.cores[1].state is CoreState.BUSY
    engine.run()
    assert len(done) == 1 and node.busy_core_count == 0


class _PerEventRecomputeCounter:
    """Run observer for ``run_measurement``: records recomputes per event."""

    def attach(self, engine: Engine, node: Node) -> None:
        self.calls = _count_recomputes(node)
        self.per_event: list[int] = []
        self._engine = engine
        engine.add_probe(self._on_event)

    def _on_event(self, time, event) -> None:
        self.per_event.append(self.calls[0])
        self.calls[0] = 0

    def detach(self) -> None:
        self._engine.remove_probe(self._on_event)


def test_table1_cell_rederives_at_most_once_per_event():
    counter = _PerEventRecomputeCounter()
    result = run_measurement("bots-fib", "gcc", "O2", 16, observer=counter)
    assert len(counter.per_event) == result.daemon.engine.fired
    assert max(counter.per_event) == 1
    # Most events mutate the node (completions, assigns, duty commits).
    assert sum(counter.per_event) > len(counter.per_event) // 4
