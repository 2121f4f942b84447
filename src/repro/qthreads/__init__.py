"""A Qthreads-like lightweight tasking runtime, co-simulated with the node.

Mirrors the structure of the Qthreads library the paper builds on
(Wheeler et al. [2]) with the MAESTRO extensions (Porterfield et al. [8]):

* **qthreads** (:class:`~repro.qthreads.task.Task`) — lightweight tasks
  written as Python generators that yield work segments and runtime
  operations; the smallest schedulable unit of work (a set of loop
  iterations or an OpenMP task);
* **worker pthreads** (:class:`~repro.qthreads.worker.Worker`) — one per
  simulated core, pinned, driving task generators;
* **shepherds** (:class:`~repro.qthreads.shepherd.Shepherd`) — locality
  domains (one per socket/L3 by default) owning LIFO work queues, with
  FIFO work stealing between shepherds (the Sherwood hierarchical
  scheduler [1]);
* **throttling hooks** — shepherd-local active-thread limits and the
  spin-loop state used by the MAESTRO throttle controller (Section IV).
"""

from repro.qthreads.api import (
    Compute,
    RegionBoundary,
    Spawn,
    Taskwait,
    Work,
    YieldTask,
)
from repro.qthreads.runtime import Runtime, RunResult
from repro.qthreads.scheduler import Scheduler
from repro.qthreads.shepherd import Shepherd
from repro.qthreads.task import Task, TaskState
from repro.qthreads.worker import Worker

__all__ = [
    "Compute",
    "RegionBoundary",
    "RunResult",
    "Runtime",
    "Scheduler",
    "Shepherd",
    "Spawn",
    "Task",
    "TaskState",
    "Taskwait",
    "Work",
    "Worker",
    "YieldTask",
]
