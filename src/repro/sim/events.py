"""Event records and handles for the discrete-event engine.

Events are ordered by ``(time, priority, seq)``.  ``seq`` is a global
insertion counter, so two events at the same time and priority fire in the
order they were scheduled — this makes every simulation run bit-for-bit
deterministic, which the test suite relies on heavily.

Hot-path layout
---------------
The engine's heap stores plain ``(time, priority, seq, event)`` tuples
rather than the :class:`ScheduledEvent` objects themselves.  Tuple
comparison is implemented in C and — because ``seq`` is unique — never
falls through to comparing the event objects, so :class:`ScheduledEvent`
needs no ordering protocol at all and can be a bare ``__slots__`` record.
This is worth >1.5x on event-drain microbenchmarks versus the previous
``dataclass(order=True)`` design, whose generated ``__lt__`` built a
fresh tuple pair on every heap sift comparison.

The event is also its own cancel handle: :meth:`Engine.schedule
<repro.sim.engine.Engine.schedule>` returns the :class:`ScheduledEvent` it
pushed, so scheduling allocates one object.  The fluid node model cancels
and reschedules its completion event on almost every state change, so a
separate handle object would be one of the most frequent allocations on
the hot path.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine


class Priority(enum.IntEnum):
    """Tie-break priority for events that fire at the same instant.

    Lower values fire first.  The distinct bands matter at phase
    boundaries: when a work segment completes at exactly the same instant a
    daemon tick fires, the completion must be processed first so the tick
    observes the post-completion machine state (the real RCRdaemon samples
    hardware counters that have already committed).
    """

    #: Machine-state updates: segment completions, duty-cycle commits.
    MACHINE = 0
    #: Runtime scheduler actions: task dispatch, steal retries.
    SCHEDULER = 10
    #: Measurement and control daemons (RCRdaemon, throttle controller).
    DAEMON = 20
    #: User/experiment callbacks (simulation-end hooks, probes).
    USER = 30


class ScheduledEvent:
    """A callback scheduled at an absolute simulation time, and its handle.

    Cancellation is lazy: :meth:`cancel` marks the event and leaves it in
    the heap, where it is skipped when popped.  This keeps cancellation
    O(1), which matters because the fluid execution model cancels and
    reschedules the "next segment completion" event on almost every state
    change.  The engine counts each cancellation so it can compact the
    heap once dead entries dominate.

    ``cancelled`` doubles as the *consumed* flag: the engine sets it when
    the event fires, so an event cancelled after it already ran is a no-op
    instead of corrupting the engine's dead-entry accounting (the event is
    no longer in the heap, so there is nothing to compact away).
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        label: str,
        engine: "Engine",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._engine = engine

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return not self.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; no-op after firing."""
        if not self.cancelled:
            self.cancelled = True
            self._engine._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"ScheduledEvent(t={self.time!r}, prio={self.priority}, "
            f"seq={self.seq}, label={self.label!r}, {state})"
        )


#: The cancellation handle :meth:`repro.sim.engine.Engine.schedule` returns
#: is the scheduled event itself.
EventHandle = ScheduledEvent
