"""The discrete-event engine.

A classic event-heap design: :meth:`Engine.schedule` pushes a callback at an
absolute or relative time; :meth:`Engine.run` pops events in
``(time, priority, seq)`` order, advances the clock, and invokes callbacks.
Everything else in the simulator — core execution, daemon ticks, throttle
actuation — is expressed as these callbacks.

Design notes
------------
* Events firing at identical timestamps are ordered by the
  :class:`~repro.sim.events.Priority` band, then insertion order, so runs
  are fully deterministic.
* The heap holds ``(time, priority, seq, event)`` tuples (see
  :mod:`repro.sim.events`): comparisons stay in C and never touch the
  event objects, which is the single biggest per-event cost saving.
* Cancellation is lazy (see :class:`~repro.sim.events.ScheduledEvent`,
  which is also the handle :meth:`Engine.schedule` returns): the heap may
  hold dead entries which are skipped on pop.  A compaction pass
  runs when dead entries dominate, keeping memory bounded for long runs.
  Firing an event marks it consumed, so a late ``cancel()`` on an
  already-fired event cannot skew the dead-entry count (that skew
  previously made :attr:`Engine.pending` drift negative and triggered
  compaction passes over heaps with nothing to compact).
* Callbacks may schedule further events, including at the current time.
  A callback scheduling an event in the past is an error.
* :meth:`Engine.run` drains same-timestamp batches without touching the
  clock between them: the clock only advances when the next event's time
  actually differs, so completion bursts and daemon phase boundaries (many
  events at one instant) pay one clock update per instant, not per event.
* Post-event hooks (:meth:`Engine.defer`) let a model coalesce work that
  several mutations inside one callback would each trigger: a hook
  registered while a callback runs fires once that callback returns,
  before any probe observes the post-event state.  Time cannot advance
  inside a callback, so deferring to the end of the event is invisible to
  anything integrated over time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.events import Priority, ScheduledEvent
from repro.sim.trace import Trace

#: Compact the heap when more than this fraction of entries are cancelled
#: (and the heap is big enough for the O(n) pass to be worth amortising).
_COMPACT_RATIO = 0.5
_COMPACT_MIN_SIZE = 1024


class Engine:
    """Deterministic discrete-event simulation engine."""

    def __init__(self, *, trace: Optional[Trace] = None, start_time: float = 0.0) -> None:
        self.clock = Clock(start_time)
        self.trace = trace if trace is not None else Trace(enabled=False)
        #: Min-heap of ``(time, priority, seq, ScheduledEvent)`` tuples.
        self._heap: list[tuple[float, int, int, ScheduledEvent]] = []
        self._seq = 0
        self._cancelled = 0
        self._fired = 0
        self._running = False
        self._stop_requested = False
        #: Read-only observers called as ``probe(time, event)`` after each
        #: event callback returns.  The list is mutated in place so the
        #: hoisted alias in :meth:`run` observes attach/detach mid-run.
        self._probes: list[Callable[[float, ScheduledEvent], Any]] = []
        #: Hooks registered with :meth:`defer`, drained after each callback.
        #: Mutated in place, like ``_probes``, for the alias in :meth:`run`.
        self._post_event: list[Callable[[], Any]] = []
        #: True while :meth:`run` or :meth:`step` is dispatching events;
        #: :meth:`defer` is only legal then.
        self.dispatching = False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock._now  # one hop: the clock's slot, not its property

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return len(self._heap) - self._cancelled

    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = Priority.USER,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # NaN fails ``>=``: refused like a negative delay
            raise SimulationError(f"cannot schedule into the past: delay={delay!r}")
        return self.schedule_at(self.clock._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = Priority.USER,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        now = self.clock._now
        if not time >= now:  # NaN fails ``>=``: refused like a past time
            raise SimulationError(
                f"cannot schedule into the past: t={time!r} < now={now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        prio = int(priority)
        event = ScheduledEvent(time, prio, seq, callback, label, self)
        heapq.heappush(self._heap, (time, prio, seq, event))
        return event

    # ------------------------------------------------------------------
    # probes (observation hooks)
    # ------------------------------------------------------------------
    def add_probe(self, probe: Callable[[float, ScheduledEvent], Any]) -> None:
        """Attach a read-only observer fired after every event callback.

        Probes must not mutate simulator state or schedule events; they
        exist for invariant checkers and instrumentation.  The engine
        fires them as ``probe(time, event)`` once the event's callback has
        returned, so the model is in a consistent post-event state.
        """
        self._probes.append(probe)

    def remove_probe(self, probe: Callable[[float, ScheduledEvent], Any]) -> None:
        """Detach a probe added with :meth:`add_probe` (no-op if absent)."""
        try:
            self._probes.remove(probe)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # post-event hooks (work coalescing)
    # ------------------------------------------------------------------
    def defer(self, hook: Callable[[], Any]) -> None:
        """Run ``hook()`` once the current event callback returns.

        Hooks fire in registration order, after the callback and before
        the probes, in both :meth:`run` and :meth:`step`; a hook may defer
        further hooks, which drain in the same pass.  A callback that
        raises still gets its hooks drained, so a caller's "flush pending"
        bookkeeping can never be stranded.  Calling this outside event
        dispatch is an error: there is no event end to defer to, and the
        caller should do the work eagerly (see :attr:`dispatching`).
        """
        if not self.dispatching:
            raise SimulationError("defer() called outside event dispatch")
        self._post_event.append(hook)

    def _drain_post_event(self) -> None:
        hooks = self._post_event
        while hooks:
            # One at a time, so a raising hook leaves the rest queued for
            # the drain in the caller's ``finally``.
            hooks.pop(0)()

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            len(self._heap) >= _COMPACT_MIN_SIZE
            and self._cancelled > _COMPACT_RATIO * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  O(n).

        Heapify over the surviving ``(time, priority, seq, event)`` tuples
        restores a valid heap under the same total order the entries were
        pushed with, so same-timestamp events keep their exact
        ``(priority, seq)`` firing order across a compaction.

        The list is mutated *in place* (slice assignment), never rebound:
        :meth:`run` holds a local alias to it across callbacks, and a
        callback's ``cancel()`` can trigger compaction mid-run.  Rebinding
        would strand the run loop on a stale list while new events land in
        the fresh one.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        self._skip_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def _skip_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1

    def step(self) -> bool:
        """Run the single next event.  Returns False if the queue was empty."""
        self._skip_dead()
        if not self._heap:
            return False
        time, _prio, _seq, event = heapq.heappop(self._heap)
        self.clock.advance_to(time)
        self._fired += 1
        event.cancelled = True  # consumed: late cancel() is now a no-op
        if self.trace.enabled:
            self.trace.record(time, "event", event.label)
        outer = self.dispatching
        self.dispatching = True
        try:
            event.callback()
        finally:
            try:
                self._drain_post_event()
            finally:
                self.dispatching = outer
        if self._probes:
            for probe in self._probes:
                probe(time, event)
        return True

    def run(self, until: Optional[float] = None, *, max_events: Optional[int] = None) -> float:
        """Run events until the queue empties, ``until`` is reached, or stop().

        Returns the simulation time at exit.  When ``until`` is given and the
        queue drains earlier, the clock is advanced to ``until`` so that
        integrations (energy, temperature) cover the full requested window.

        This is the simulator's innermost loop; it inlines dead-entry
        skipping and batches same-timestamp drains (one clock advance per
        distinct timestamp) rather than delegating to :meth:`step`.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: run() called from a callback")
        self._running = True
        self.dispatching = True
        self._stop_requested = False
        if max_events is None:
            budget = -1  # negative: unlimited
        else:
            budget = max_events if max_events > 0 else 0
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        trace = self.trace
        fired = self._fired
        now = clock.now
        probes = self._probes  # in-place list: alias sees attach/detach
        post_event = self._post_event  # in-place list, like probes
        try:
            while not self._stop_requested:
                head = None
                while heap:
                    head = heap[0]
                    if head[3].cancelled:
                        heappop(heap)
                        self._cancelled -= 1
                        head = None
                    else:
                        break
                if head is None:
                    break
                time = head[0]
                if until is not None and time > until:
                    break
                if budget == 0:
                    break
                budget -= 1
                heappop(heap)
                event = head[3]
                if time != now:
                    clock.advance_to(time)
                    now = time
                fired += 1
                event.cancelled = True  # consumed: late cancel() is a no-op
                if trace.enabled:
                    trace.record(time, "event", event.label)
                event.callback()
                if post_event:
                    self._drain_post_event()
                if probes:
                    for probe in probes:
                        probe(time, event)
            if until is not None and now < until and not self._stop_requested:
                clock.advance_to(until)
        finally:
            self._fired = fired
            try:
                # A raising callback skipped the inline drain above.
                self._drain_post_event()
            finally:
                self.dispatching = False
                self._running = False
        return clock.now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stop_requested = True
