"""Write-ahead JSONL journal: accepted jobs survive a service crash.

Every job transition is appended *before* the client learns about it,
one JSON object per line::

    {"ev": "accepted", "job": "j-000001", "digest": "…", "kind": "run",
     "client": "cli", "spec": {…}, "t": 1754650000.123}

A restarted service replays the file: jobs whose last event is
non-terminal are resurrected (spec included in their ``accepted`` /
``attached`` line) and re-admitted, which — together with the result
cache's digest idempotence — gives every accepted job at-least-once
execution and exactly-once *measured* results.

The journal holds an exclusive ``flock`` for the service's lifetime, so
two services can never interleave writes into one journal.  Reads
tolerate a torn final line (the service died mid-append); everything
before it is intact by construction.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.errors import ServiceError

try:  # POSIX only
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Events that end a job's lifecycle; anything else is recoverable.
TERMINAL_EVENTS = frozenset({"finished", "failed", "dead", "cancelled"})


class Journal:
    """Append-only, crash-tolerant JSONL journal with single-writer lock."""

    def __init__(self, path: Union[str, Path], *, fsync: bool = False,
                 observe=None) -> None:
        self.path = Path(path)
        self.fsync = fsync
        #: Optional latency hook: called with the wall seconds each
        #: ``append`` spent writing/flushing/fsyncing.  Lets the service
        #: export journal durability latency without the journal knowing
        #: anything about metrics.
        self.observe = observe
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        if fcntl is not None:
            try:
                fcntl.flock(self._fh.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                self._fh.close()
                raise ServiceError(
                    f"journal {self.path} is locked by another service "
                    f"instance ({exc})"
                ) from exc

    # ------------------------------------------------------------------
    def append(self, ev: str, **fields: Any) -> None:
        """Durably record one event (flushed; fsync'd when configured)."""
        started = time.perf_counter()
        entry = {"ev": ev, "t": time.time(), **fields}
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        if self.observe is not None:
            self.observe(time.perf_counter() - started)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()  # releases the flock

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def iter_entries(path: Union[str, Path]) -> Iterator[dict[str, Any]]:
        """Yield every parseable entry; a torn tail line is skipped."""
        try:
            raw = Path(path).read_bytes()
        except OSError:
            return
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn append from a crashed writer
            if isinstance(entry, dict) and "ev" in entry:
                yield entry

    @staticmethod
    def recover(path: Union[str, Path]) -> "RecoveryPlan":
        """Fold the journal into the set of jobs a restart must finish."""
        jobs: dict[str, dict[str, Any]] = {}
        order: list[str] = []
        max_seq = 0
        for entry in Journal.iter_entries(path):
            job_id = entry.get("job")
            if not isinstance(job_id, str):
                continue
            seq = _job_seq(job_id)
            if seq is not None:
                max_seq = max(max_seq, seq)
            ev = entry["ev"]
            if ev in ("accepted", "attached", "recovered"):
                known = jobs.get(job_id)
                if known is None:
                    jobs[job_id] = {
                        "job": job_id,
                        "digest": entry.get("digest"),
                        "client": entry.get("client", ""),
                        "spec": entry.get("spec"),
                        "clients": [entry.get("client", "")],
                        "terminal": False,
                    }
                    order.append(job_id)
                else:
                    known["clients"].append(entry.get("client", ""))
            elif job_id in jobs and ev in TERMINAL_EVENTS:
                jobs[job_id]["terminal"] = True
        pending = [jobs[j] for j in order
                   if not jobs[j]["terminal"] and jobs[j]["spec"] is not None]
        return RecoveryPlan(pending=pending, next_seq=max_seq + 1,
                            seen=len(jobs))


def _job_seq(job_id: str) -> Optional[int]:
    """The numeric suffix of a ``j-NNNNNN`` id (id allocation resumes)."""
    if job_id.startswith("j-"):
        try:
            return int(job_id[2:])
        except ValueError:
            return None
    return None


class RecoveryPlan:
    """What a restart owes its predecessor's clients."""

    def __init__(self, *, pending: list[dict[str, Any]], next_seq: int,
                 seen: int) -> None:
        #: Non-terminal jobs, journal order, each with its wire spec.
        self.pending = pending
        #: First job sequence number the new incarnation may allocate.
        self.next_seq = next_seq
        #: Total distinct jobs the journal mentions (diagnostics).
        self.seen = seen
