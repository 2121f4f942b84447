"""Job objects and their lifecycle state machine.

::

    QUEUED ──> RUNNING ──> DONE                (measured, or cache/dedup)
       │          │ ├────> FAILED              (spec error, retries spent)
       │          │ └────> DEAD                (timeout/poison dead-letter)
       │          └──────> QUEUED              (worker crash, redelivery)
       └─────────────────> CANCELLED

``DONE`` / ``FAILED`` / ``DEAD`` / ``CANCELLED`` are terminal; the
journal records every transition so a restarted service can finish what
an earlier incarnation accepted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.service.protocol import Spec, spec_to_wire


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    DEAD = "dead"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.DEAD, JobState.CANCELLED}
)


@dataclass
class Job:
    """One accepted submission, shared by every subscriber of its digest."""

    id: str
    spec: Spec
    client: str
    state: JobState = JobState.QUEUED
    #: Worker launches (including ones that crashed or timed out).
    attempts: int = 0
    #: Failed attempts (spec error or timeout) — drives the retry budget.
    failures: int = 0
    #: Times the job was requeued because its worker process died.
    redeliveries: int = 0
    #: Set by ``cancel`` while RUNNING; the crash path honours it.
    cancel_requested: bool = False
    #: Clients that submitted this digest (primary first).
    subscribers: list[str] = field(default_factory=list)
    #: How the result was produced: executed | cache | recovered.
    source: str = ""
    error: Optional[str] = None
    #: Scalar result summary (digest-addressed; the full record lives in
    #: the result cache).
    result: Optional[dict[str, Any]] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Worker pid while RUNNING (chaos tooling targets this).
    pid: Optional[int] = None

    @property
    def digest(self) -> str:
        return self.spec.digest

    @property
    def kind(self) -> str:
        return self.spec.KIND

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe status projection for ``status`` / ``result`` ops."""
        snap: dict[str, Any] = {
            "job": self.id,
            "digest": self.digest,
            "kind": self.kind,
            "label": self.spec.describe(),
            "state": self.state.value,
            "attempts": self.attempts,
            "redeliveries": self.redeliveries,
            "subscribers": len(self.subscribers),
            "source": self.source,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            snap["started_at"] = self.started_at
        if self.finished_at is not None:
            snap["finished_at"] = self.finished_at
        if self.pid is not None and self.state is JobState.RUNNING:
            snap["pid"] = self.pid
        if self.error is not None:
            snap["error"] = self.error
        if self.result is not None:
            snap["result"] = self.result
        return snap

    def journal_fields(self) -> dict[str, Any]:
        """The fields the write-ahead journal needs to resurrect this job."""
        return {
            "job": self.id,
            "digest": self.digest,
            "kind": self.kind,
            "client": self.client,
            "spec": spec_to_wire(self.spec),
        }


def result_summary(record: Any) -> dict[str, Any]:
    """Scalar summary of a measurement/sched record for the wire."""
    summary: dict[str, Any] = {}
    for key in ("time_s", "energy_j", "watts", "wall_s"):
        value = getattr(record, key, None)
        if value is not None:
            summary[key] = float(value)
    return summary
