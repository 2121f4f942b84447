"""Regression tests for the engine's lazy-cancellation accounting.

Two historical bugs are pinned here:

* ``cancel()`` on an already-fired handle used to increment the engine's
  dead-entry count even though the event had already left the heap, so
  ``pending`` drifted negative and compaction passes ran over heaps with
  nothing in them.  Firing now marks the event consumed, making late
  cancels true no-ops.
* ``_compact()`` used to rebind ``_heap`` to a fresh list.  ``run()``
  holds a local alias to the heap across callbacks, so a compaction
  triggered *from inside a callback* stranded the run loop on the stale
  list: every event scheduled after that point landed in the new heap and
  silently never fired.  Compaction now mutates the list in place.
"""

from __future__ import annotations

from repro.sim.engine import _COMPACT_MIN_SIZE, Engine
from repro.sim.events import EventHandle, Priority, ScheduledEvent


def test_schedule_returns_the_event_as_its_handle() -> None:
    engine = Engine()
    handle = engine.schedule(0.5, lambda: None, label="x")
    assert type(handle) is ScheduledEvent
    assert EventHandle is ScheduledEvent
    assert engine._heap[0][3] is handle  # no wrapper: the heap entry itself
    assert handle.time == 0.5
    assert handle.active
    assert engine.schedule_at(0.25, lambda: None).time == 0.25


def test_double_cancel_counts_once() -> None:
    engine = Engine()
    keep = engine.schedule(1.0, lambda: None)
    doomed = engine.schedule(2.0, lambda: None)
    doomed.cancel()
    doomed.cancel()
    assert not doomed.active
    assert engine._cancelled == 1
    assert engine.pending == 1
    engine.run()
    assert engine.fired == 1
    assert not keep.active
    assert engine.pending == 0


def test_cancel_after_fire_leaves_pending_unchanged() -> None:
    engine = Engine()
    first = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run(until=1.5)
    assert engine.fired == 1
    assert engine.pending == 1
    first.cancel()
    assert engine.pending == 1
    assert engine._cancelled == 0


def test_compaction_fires_once_dead_entries_pass_half() -> None:
    engine = Engine()
    size = 2 * _COMPACT_MIN_SIZE
    handles = [engine.schedule(1.0 + i, lambda: None) for i in range(size)]
    for handle in handles[: size // 2]:
        handle.cancel()
    # Exactly half dead: not yet past the ratio, nothing compacted.
    assert len(engine._heap) == size
    assert engine._cancelled == size // 2
    handles[size // 2].cancel()
    # One more tips it past 50%: the dead entries are gone.
    assert len(engine._heap) == size // 2 - 1
    assert engine._cancelled == 0
    assert engine.pending == size // 2 - 1
    assert all(entry[3].active for entry in engine._heap)


def test_cancel_after_fire_is_a_noop() -> None:
    engine = Engine()
    handles = [engine.schedule(0.001 * (i + 1), lambda: None) for i in range(10)]
    engine.run()
    assert engine.fired == 10
    assert engine.pending == 0
    for handle in handles:
        assert not handle.active
        handle.cancel()  # late cancel: event already fired
        handle.cancel()  # and idempotent
    assert engine.pending == 0, "late cancels must not skew dead-entry accounting"


def test_pending_stays_correct_over_heavy_cancel_compact_cycles() -> None:
    engine = Engine()
    for _round in range(5):
        live = [engine.schedule(1.0, lambda: None) for _ in range(_COMPACT_MIN_SIZE)]
        doomed = [engine.schedule(2.0, lambda: None) for _ in range(2 * _COMPACT_MIN_SIZE)]
        for handle in doomed:
            handle.cancel()  # crosses the compaction ratio repeatedly
        assert engine.pending == (_round + 1) * _COMPACT_MIN_SIZE
        for handle in live:
            assert handle.active
    total_live = 5 * _COMPACT_MIN_SIZE
    engine.run()
    assert engine.fired == total_live
    assert engine.pending == 0


def test_compaction_preserves_same_timestamp_order() -> None:
    """Forcing a compaction must not reorder events at one instant."""
    engine = Engine()
    order: list[int] = []
    expected: list[int] = []
    bands = (Priority.MACHINE, Priority.SCHEDULER, Priority.DAEMON, Priority.USER)
    for i in range(64):
        priority = bands[i % 4]
        engine.schedule(
            1.0, (lambda k: lambda: order.append(k))(i), priority=priority
        )
        expected.append(i)
    # Same-timestamp batches fire in (priority, insertion) order.
    expected.sort(key=lambda k: (int(bands[k % 4]), k))
    # Pad past the compaction threshold with doomed entries and cancel
    # them all, forcing a full compact-and-reheapify pass underneath the
    # live same-timestamp batch.
    doomed = [engine.schedule(2.0, lambda: None) for _ in range(2 * _COMPACT_MIN_SIZE)]
    for handle in doomed:
        handle.cancel()
    engine.run()
    assert order == expected


def test_mid_run_compaction_does_not_orphan_new_events() -> None:
    """Compaction triggered from a callback must not strand the run loop.

    The first event inflates the heap with doomed entries and cancels
    them (triggering compaction while ``run()`` is live), then keeps
    scheduling a follow-up chain.  Every link must still fire.
    """
    engine = Engine()
    fired: list[int] = []
    chain_len = 50

    def link(step: int) -> None:
        fired.append(step)
        if step == 0:
            doomed = [
                engine.schedule(10.0, lambda: None)
                for _ in range(2 * _COMPACT_MIN_SIZE)
            ]
            for handle in doomed:
                handle.cancel()  # compacts mid-run
        if step + 1 < chain_len:
            engine.schedule(0.001, lambda: link(step + 1))

    engine.schedule(0.001, lambda: link(0))
    engine.run()
    assert fired == list(range(chain_len))
    assert engine.pending == 0
    assert engine.fired == chain_len


def test_compaction_counters_reset_consistently() -> None:
    """Dead-entry bookkeeping survives repeated compaction passes.

    ``pending`` must stay exact throughout, and the heap must uphold the
    compaction invariant: above the minimum size, dead entries never
    dominate (below it, keeping them is the deliberate amortization).
    """
    engine = Engine()
    keepers = [engine.schedule(1.0, lambda: None) for _ in range(100)]
    doomed = [engine.schedule(2.0, lambda: None) for _ in range(4 * _COMPACT_MIN_SIZE)]
    for handle in doomed:
        handle.cancel()
    assert engine.pending == len(keepers)
    heap_len = len(engine._heap)
    dead = heap_len - engine.pending
    assert heap_len < _COMPACT_MIN_SIZE or dead <= 0.5 * heap_len
    # The 4096 doomed entries must actually have been compacted away, not
    # merely counted as dead.
    assert heap_len < 2 * _COMPACT_MIN_SIZE
    engine.run()
    assert engine.fired == len(keepers)
    assert engine.pending == 0
