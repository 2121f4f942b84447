"""Lightweight task (qthread) state.

A task wraps a generator plus the bookkeeping the scheduler needs:
parent/child links for taskwait, the shepherd it last ran on (locality
hint for re-enqueueing), and completion listeners (used by the runtime
for the root task).

Unlike heavyweight pthreads, tasks have no identity beyond this object —
matching the Qthreads design point of small context, no per-thread signal
state, no preemption (Section III of the paper).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional

from repro.errors import SchedulerError
from repro.qthreads.api import TaskGen

_task_ids = itertools.count()


class TaskState(enum.Enum):
    """Lifecycle of a task."""

    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class Task:
    """One qthread: a generator plus scheduler bookkeeping."""

    __slots__ = (
        "tid",
        "gen",
        "parent",
        "label",
        "state",
        "pending_children",
        "waiting_children",
        "result",
        "shepherd_hint",
        "listeners",
        "children_spawned",
    )

    def __init__(
        self,
        gen: TaskGen,
        parent: Optional["Task"] = None,
        label: str = "",
    ) -> None:
        self.tid: int = next(_task_ids)
        self.gen = gen
        self.parent = parent
        self.label = label
        self.state = TaskState.CREATED
        #: Direct children not yet completed.
        self.pending_children = 0
        #: True while blocked in a taskwait.
        self.waiting_children = False
        #: Return value of the generator once DONE.
        self.result: Any = None
        #: Shepherd the task last ran on (re-enqueue locality).
        self.shepherd_hint: int = 0
        #: Callbacks fired when the task completes.
        self.listeners: list[Callable[["Task"], None]] = []
        #: Total children ever spawned (stats/tests).
        self.children_spawned = 0

    @property
    def done(self) -> bool:
        return self.state is TaskState.DONE

    def add_listener(self, callback: Callable[["Task"], None]) -> None:
        """Register a completion callback (fires immediately if DONE)."""
        if self.state is TaskState.DONE:
            callback(self)
        else:
            self.listeners.append(callback)

    def mark_done(self, result: Any) -> None:
        """Transition to DONE and fire listeners.  Called by the worker."""
        if self.state is TaskState.DONE:
            raise SchedulerError(f"task {self.tid} completed twice")
        self.state = TaskState.DONE
        self.result = result
        listeners, self.listeners = self.listeners, []
        for callback in listeners:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.label or f"task{self.tid}"
        return f"Task({name}, {self.state.value}, children={self.pending_children})"
