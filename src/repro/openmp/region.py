"""``#pragma omp parallel`` — explicit parallel regions.

Spawns one implicit task per team member, each running
``thread_body(tid)``, then joins at the implicit barrier and signals the
region boundary (a spin-exit condition for throttled workers).

The paper's applications use worksharing loops (:mod:`repro.openmp.loops`)
or explicit tasks (the :mod:`repro.qthreads.api` operations);
``parallel_region`` is the construct for SPMD-style code that opens a team
once and synchronises inside it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import ConfigError
from repro.openmp.env import OmpEnv
from repro.qthreads.api import RegionBoundary, Spawn, TaskGen, Taskwait


def parallel_region(
    env: OmpEnv,
    thread_body: Callable[[int], TaskGen],
    *,
    num_threads: int | None = None,
    label: str = "parallel",
) -> Generator[Any, Any, list[Any]]:
    """Fork a team, run ``thread_body(tid)`` per member, join.

    Returns the per-member results indexed by ``tid``.  Drive with
    ``yield from`` inside a task.
    """
    team = num_threads if num_threads is not None else env.num_threads
    if team <= 0:
        raise ConfigError(f"team size must be positive, got {team!r}")
    handles = []
    for tid in range(team):
        handle = yield Spawn(thread_body(tid), label=f"{label}#{tid}")
        handles.append(handle)
    yield Taskwait()
    yield RegionBoundary(kind="region")
    return [h.result for h in handles]
