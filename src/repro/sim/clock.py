"""Simulation clock.

A single monotonically non-decreasing notion of "now", owned by the engine
and read by every component.  Keeping it in its own object (rather than a
bare float on the engine) lets hardware models hold a reference to the clock
without holding a reference to the engine, which keeps the dependency graph
acyclic: ``hw`` depends on ``Clock``, ``Engine`` drives ``Clock``.
"""

from __future__ import annotations

from repro.errors import SimulationError


class Clock:
    """Monotonic simulation clock measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not start >= 0:
            raise SimulationError(f"clock cannot start before zero, got {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t``.

        Only the engine calls this.  Moving backwards is an engine bug and
        raises :class:`SimulationError` immediately rather than corrupting
        downstream integrations (energy accumulators integrate power over
        ``dt`` and silently produce negative energy on a backwards clock).
        A NaN time is refused the same way.
        """
        if not t >= self._now:  # NaN fails ``>=`` and is refused too
            raise SimulationError(
                f"clock moved backwards: {self._now!r} -> {t!r}"
            )
        self._now = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clock(now={self._now!r})"
