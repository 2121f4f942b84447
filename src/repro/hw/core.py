"""Per-core execution state.

A core is in one of four states:

* ``OFF`` — parked by the OS (deep C-state): zero power, no demand.  This
  models the paper's "turning the threads off at the OS level" comparison
  (Table IV discussion).
* ``IDLE`` — power-gated but available: draws only ``core_idle_w``.
* ``BUSY`` — draining a work :class:`Segment` at the fluid rate computed
  by the node.
* ``SPIN`` — a throttled worker in the MAESTRO spin loop: clocked (C0) but
  doing no productive work, normally at 1/32 duty.  Draws active-base
  power plus duty-scaled issue power; contributes no memory demand.

Work is measured in *solo-seconds*: the wall time the segment would take on
one core at nominal frequency with an uncontended memory system.  The
node's rate model converts solo-seconds to wall time under the current
duty cycle and contention (see :mod:`repro.hw.memory`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional


class CoreState(enum.Enum):
    """Power/activity state of a core."""

    OFF = "off"
    IDLE = "idle"
    BUSY = "busy"
    SPIN = "spin"


_new_tuple = tuple.__new__
_INF = math.inf


def _field_error(field: str, value: object, bound: str) -> ValueError:
    """``<field> must be <bound>``, or ``must be finite`` for ``+inf``."""
    if value == _INF:
        return ValueError(f"{field} must be finite, got {value!r}")
    return ValueError(f"{field} must be {bound}, got {value!r}")


def invalid_solo_seconds(solo_seconds: object) -> ValueError:
    """The error for a segment duration that is negative, NaN or infinite.

    Shared by :class:`Segment` and the callers that build segments from
    pre-validated constants, so every path names the bad value alike.
    """
    return _field_error("solo_seconds", solo_seconds, ">= 0")


class _SegmentFields(NamedTuple):
    solo_seconds: float
    mem_fraction: float = 0.0
    power_scale: float = 1.0
    contention_exponent: float | None = None
    coherence_penalty: float = 0.0
    tag: str = ""


class Segment(_SegmentFields):
    """One contiguous piece of work executed by a core.

    An immutable, tuple-backed value: construction is one validated
    ``tuple.__new__`` and fields read through C-level tuple accessors.
    Apps, the runtime and the daemon build a segment per simulated work
    item (hundreds of thousands per sweep), so its construction cost is
    on the hot path.  Unpickling goes back through the validating
    constructor, so a segment shipped to a pool worker is checked again.

    Attributes
    ----------
    solo_seconds:
        Duration on an unloaded machine at nominal frequency.
    mem_fraction:
        Share of the solo duration spent waiting on DRAM (``mu``).
    power_scale:
        Multiplier on the core's active power while running this segment;
        carries instruction-mix differences between applications and
        compilers (an AVX-heavy Strassen draws more than a pointer-chasing
        health simulation).
    contention_exponent:
        Latency-growth exponent this segment's access pattern experiences
        above the memory knee (``None`` = the machine default).  Streaming
        patterns saturate flat (~1.0); irregular patterns (pointer
        chasing) collapse super-linearly (~2).
    coherence_penalty:
        Cache-line sharing cost: each *other* busy core on the node adds
        this much latency stretch to the segment's memory portion,
        knee-free — coherence misses ping-pong between sharers from the
        second participant onward.  This is the mechanism behind the
        paper's programs whose *serial* version beats every parallel one
        (uncut fibonacci's task-queue lines, reduction's accumulator
        lines; Section II-C.4).
    tag:
        Free-form label used by traces and tests.
    """

    __slots__ = ()

    def __new__(
        cls,
        solo_seconds: float,
        mem_fraction: float = 0.0,
        power_scale: float = 1.0,
        contention_exponent: float | None = None,
        coherence_penalty: float = 0.0,
        tag: str = "",
    ) -> "Segment":
        # Inverted comparisons: NaN fails every ``<``/``>=``, so ``not``
        # of the valid range rejects it where a plain ``x < 0`` lets it in.
        if not 0.0 <= solo_seconds < _INF:
            raise invalid_solo_seconds(solo_seconds)
        if not (0.0 <= mem_fraction <= 1.0):
            raise ValueError(f"mem_fraction must be in [0,1], got {mem_fraction!r}")
        if not 0.0 < power_scale < _INF:
            raise _field_error("power_scale", power_scale, "positive")
        if contention_exponent is not None and not (
            1.0 <= contention_exponent < _INF
        ):
            raise _field_error("contention_exponent", contention_exponent, ">= 1")
        if not 0.0 <= coherence_penalty < _INF:
            raise _field_error("coherence_penalty", coherence_penalty, ">= 0")
        return _new_tuple(
            cls,
            (solo_seconds, mem_fraction, power_scale, contention_exponent,
             coherence_penalty, tag),
        )


@dataclass(slots=True)
class Core:
    """Mutable per-core state owned by the node.

    ``slots=True`` matters here: every field is read in the node's
    per-event sync/recompute loops, and slot access skips the instance
    ``__dict__`` lookup on each of them.
    """

    index: int
    socket: int
    state: CoreState = CoreState.IDLE
    #: Effective duty-cycle fraction (1.0 = unmodulated).
    duty: float = 1.0
    #: Raw value last written to IA32_CLOCK_MODULATION (for MSR readback).
    clock_mod_raw: int = 0
    #: Segment currently executing (BUSY only).
    segment: Optional[Segment] = None
    #: Remaining solo-seconds of the current segment.
    remaining: float = 0.0
    #: Completion callback for the current segment.
    on_complete: Optional[Callable[[], Any]] = None
    #: Cached progress rate in solo-seconds per wall second (BUSY only).
    speed: float = 0.0
    #: Cached fraction of wall time stalled on memory (power model input).
    mem_wall_fraction: float = 0.0

    # -- lifetime accounting (performance counters) --------------------
    busy_seconds: float = field(default=0.0)
    spin_seconds: float = field(default=0.0)
    work_done_solo_seconds: float = field(default=0.0)
    segments_completed: int = field(default=0)
    #: IA32_MPERF: reference (TSC-rate) cycles while in C0.
    mperf_cycles: float = field(default=0.0)
    #: IA32_APERF: actual (duty-modulated) cycles while in C0.  The ratio
    #: APERF/MPERF is how software observes clock modulation.
    aperf_cycles: float = field(default=0.0)

    @property
    def is_busy(self) -> bool:
        return self.state is CoreState.BUSY

    @property
    def is_spinning(self) -> bool:
        return self.state is CoreState.SPIN

    @property
    def demand_fraction(self) -> float:
        """Memory fraction the core currently presents to its socket."""
        if self.state is CoreState.BUSY and self.segment is not None:
            return self.segment.mem_fraction
        return 0.0
