"""Operations a task generator may yield to the runtime.

A *qthread* in this runtime is a Python generator.  It communicates with
the scheduler by yielding operation objects and receives results via the
generator ``send`` channel::

    def fib(n, depth, profile):
        if n < 2 or depth >= CUTOFF:
            yield Work(profile.leaf_seconds(n), mem_fraction=0.1)
            return fib_value(n)
        a = yield Spawn(fib(n - 1, depth + 1, profile))
        b = yield Spawn(fib(n - 2, depth + 1, profile))
        yield Taskwait()
        return a.result + b.result

Yielding a bare :class:`~repro.hw.core.Segment` is equivalent to yielding
``Compute(segment)``.

This mirrors the paper's stack: OpenMP directives are outlined by
ROSE/XOMP into calls that create qthreads; here the OpenMP layer
(:mod:`repro.openmp`) generates these same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.hw.core import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qthreads.feb import Feb
    from repro.qthreads.task import Task

#: Generator type for task bodies.
TaskGen = Generator[Any, Any, Any]


def Work(
    solo_seconds: float,
    mem_fraction: float = 0.0,
    power_scale: float = 1.0,
    contention_exponent: Optional[float] = None,
    coherence_penalty: float = 0.0,
    tag: str = "",
) -> Segment:
    """Construct a work segment (sugar over :class:`repro.hw.core.Segment`)."""
    return Segment(
        solo_seconds=solo_seconds,
        mem_fraction=mem_fraction,
        power_scale=power_scale,
        contention_exponent=contention_exponent,
        coherence_penalty=coherence_penalty,
        tag=tag,
    )


@dataclass(frozen=True)
class Compute:
    """Execute a segment on the worker's core; resumes when it completes."""

    segment: Segment


class Spawn:
    """Create a child task from a generator; sends back its Task handle.

    The child is pushed onto the spawning worker's shepherd queue (LIFO),
    costing ``spawn_overhead_cycles`` on the spawning core.

    A slotted class rather than a frozen dataclass: task bodies yield one
    per child (over a hundred thousand per sweep), and a frozen
    dataclass's ``__init__`` pays an ``object.__setattr__`` per field.
    """

    __slots__ = ("gen", "label")

    def __init__(self, gen: TaskGen, label: str = "") -> None:
        self.gen = gen
        self.label = label


class Taskwait:
    """Block until all direct children spawned so far have completed.

    Slotted and field-less, like :class:`Spawn`; not a ``NamedTuple``,
    since two field-less tuples of different operations compare equal.
    """

    __slots__ = ()


@dataclass(frozen=True)
class YieldTask:
    """Cooperatively yield: requeue this task and let the worker seek."""


@dataclass(frozen=True)
class RegionBoundary:
    """Signal a parallel region/loop termination to the scheduler.

    One of the paper's four spin-exit conditions: spinning workers are
    woken to re-check the throttle gate.  The OpenMP layer emits this at
    the end of every parallel loop and region.
    """

    kind: str = "loop"


@dataclass(frozen=True)
class FebWriteEF:
    """qthread_writeEF: wait until empty, write value, mark full."""

    feb: "Feb"
    value: Any = None


@dataclass(frozen=True)
class FebWriteF:
    """qthread_fill/writeF: write value and mark full regardless of state."""

    feb: "Feb"
    value: Any = None


@dataclass(frozen=True)
class FebReadFF:
    """qthread_readFF: wait until full, send back the value, leave full."""

    feb: "Feb"


@dataclass(frozen=True)
class FebReadFE:
    """qthread_readFE: wait until full, send back the value, mark empty."""

    feb: "Feb"


#: Union of operation types for isinstance dispatch in the worker.
TaskOp = (
    Compute,
    Spawn,
    Taskwait,
    YieldTask,
    RegionBoundary,
    FebWriteEF,
    FebWriteF,
    FebReadFF,
    FebReadFE,
)
