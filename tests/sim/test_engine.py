"""Discrete-event engine: ordering, cancellation, determinism."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.events import Priority


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(3.0, lambda: fired.append(3))
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(2.0, lambda: fired.append(2))
    eng.run()
    assert fired == [1, 2, 3]
    assert eng.now == 3.0


def test_same_time_orders_by_priority_then_seq():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append("user1"), priority=Priority.USER)
    eng.schedule(1.0, lambda: fired.append("machine"), priority=Priority.MACHINE)
    eng.schedule(1.0, lambda: fired.append("daemon"), priority=Priority.DAEMON)
    eng.schedule(1.0, lambda: fired.append("user2"), priority=Priority.USER)
    eng.run()
    assert fired == ["machine", "daemon", "user1", "user2"]


def test_cannot_schedule_into_the_past():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule(-0.1, lambda: None)


@pytest.mark.parametrize("entry", ["schedule", "schedule_at"])
def test_nan_times_are_refused(entry):
    """NaN compares false against everything, so a plain ``t < now`` guard
    let it in: a NaN event fired between its neighbours at ``now == nan``."""
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append(("a", eng.now)))
    with pytest.raises(SimulationError):
        getattr(eng, entry)(math.nan, lambda: fired.append(("nan", eng.now)))
    eng.schedule(2.0, lambda: fired.append(("b", eng.now)))
    eng.run()
    assert fired == [("a", 1.0), ("b", 2.0)]
    assert eng.pending == 0


def test_clock_refuses_nan():
    clock = Clock(1.0)
    with pytest.raises(SimulationError):
        clock.advance_to(math.nan)
    assert clock.now == 1.0
    with pytest.raises(SimulationError):
        Clock(math.nan)


def test_cancelled_events_do_not_fire():
    eng = Engine()
    fired = []
    handle = eng.schedule(1.0, lambda: fired.append("cancelled"))
    eng.schedule(2.0, lambda: fired.append("kept"))
    handle.cancel()
    assert not handle.active
    eng.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    eng = Engine()
    handle = eng.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert eng.run() == 0.0  # no live events; clock unchanged


def test_callbacks_can_schedule_more_events():
    eng = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            eng.schedule(1.0, lambda: chain(n + 1))

    eng.schedule(1.0, lambda: chain(1))
    eng.run()
    assert fired == [1, 2, 3, 4, 5]
    assert eng.now == 5.0


def test_run_until_advances_clock_to_bound():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run(until=10.0)
    assert eng.now == 10.0


def test_run_until_does_not_fire_later_events():
    eng = Engine()
    fired = []
    eng.schedule(5.0, lambda: fired.append(5))
    eng.run(until=2.0)
    assert fired == []
    eng.run()
    assert fired == [5]


def test_stop_requests_exit():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: (fired.append(1), eng.stop()))
    eng.schedule(2.0, lambda: fired.append(2))
    eng.run()
    assert fired == [1]
    eng.run()
    assert fired == [1, 2]


def test_engine_is_not_reentrant():
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.schedule(1.0, nested)
    eng.run()
    assert len(errors) == 1


def test_max_events_budget():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule(i + 1.0, lambda i=i: fired.append(i))
    eng.run(max_events=3)
    assert fired == [0, 1, 2]


def test_heap_compaction_preserves_live_events():
    eng = Engine()
    fired = []
    handles = [eng.schedule(1.0 + i * 1e-6, lambda: None) for i in range(2000)]
    keeper = eng.schedule(5.0, lambda: fired.append("kept"))
    for handle in handles:
        handle.cancel()
    assert eng.pending == 1
    eng.run()
    assert fired == ["kept"]


def test_peek_time_skips_dead_events():
    eng = Engine()
    dead = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    dead.cancel()
    assert eng.peek_time() == 2.0


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 3)), max_size=40))
def test_firing_order_is_sorted_by_time_priority(events):
    eng = Engine()
    fired = []
    for idx, (t, prio) in enumerate(events):
        eng.schedule(t, lambda t=t, p=prio, i=idx: fired.append((t, p, i)),
                     priority=prio * 10)
    eng.run()
    keys = [(t, p * 1, i) for t, p, i in fired]
    # seq index is monotone within equal (time, priority) groups, and the
    # (time, priority) pairs are globally sorted.
    assert [(t, p) for t, p, _ in keys] == sorted((t, p) for t, p, _ in keys)


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        log = []
        for i in range(50):
            eng.schedule((i * 7919 % 13) / 10.0, lambda i=i: log.append(i),
                         priority=(i % 3) * 10)
        eng.run()
        return log

    assert build() == build()


# ----------------------------------------------------------------------
# post-event hooks (Engine.defer)
# ----------------------------------------------------------------------
def _hook_order_log(eng):
    """Event whose callback defers two hooks; a probe logs after them."""
    log = []

    def callback():
        log.append("callback")
        eng.defer(lambda: log.append("hook1"))
        eng.defer(lambda: log.append("hook2"))
        log.append("callback-end")

    eng.add_probe(lambda time, event: log.append("probe"))
    eng.schedule(1.0, callback)
    return log


def test_deferred_hooks_run_after_callback_before_probes_in_run():
    eng = Engine()
    log = _hook_order_log(eng)
    eng.run()
    assert log == ["callback", "callback-end", "hook1", "hook2", "probe"]
    assert not eng.dispatching


def test_deferred_hooks_run_after_callback_before_probes_in_step():
    eng = Engine()
    log = _hook_order_log(eng)
    assert eng.step()
    assert log == ["callback", "callback-end", "hook1", "hook2", "probe"]
    assert not eng.dispatching


def test_hooks_deferred_by_hooks_drain_in_the_same_pass():
    eng = Engine()
    log = []

    def first_hook():
        log.append("first")
        eng.defer(lambda: log.append("second"))

    eng.schedule(1.0, lambda: eng.defer(first_hook))
    eng.add_probe(lambda time, event: log.append("probe"))
    eng.run()
    assert log == ["first", "second", "probe"]


def test_hooks_fire_once_per_event():
    eng = Engine()
    counts = []
    for t in (1.0, 1.0, 2.0):
        eng.schedule(t, lambda: eng.defer(lambda: counts.append(eng.now)))
    eng.run()
    assert counts == [1.0, 1.0, 2.0]


def test_defer_outside_dispatch_is_an_error():
    eng = Engine()
    with pytest.raises(SimulationError, match="outside event dispatch"):
        eng.defer(lambda: None)


@pytest.mark.parametrize("entry", ["run", "step"])
def test_raising_callback_still_drains_its_hooks(entry):
    eng = Engine()
    drained = []

    def boom():
        eng.defer(lambda: drained.append(eng.now))
        raise RuntimeError("boom")

    eng.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        eng.run() if entry == "run" else eng.step()
    assert drained == [1.0]
    assert eng._post_event == []
    assert not eng.dispatching
    # The engine stays usable: the next event defers and drains normally.
    eng.schedule(1.0, lambda: eng.defer(lambda: drained.append(eng.now)))
    eng.run()
    assert drained == [1.0, 2.0]
