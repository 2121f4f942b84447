"""Warm killable workers driving the harness execution core.

Each busy slot holds one warm child process — a
:class:`repro.harness.executor.SpecWorker`, forked lazily the first time
the slot needs one — and reuses it across jobs, one job at a time, as
:class:`~repro.harness.executor.BatchExecutor` sweeps do with their
slots.  The child can be killed on timeout or cancel without collateral
damage, and because it only ever holds one job its death is attributable
to exactly that job (which is what makes redelivery counting and poison
quarantine sound).  A worker is retired, never reused, after any outcome
but ``ok``: crash, timeout or spec error.

Inside the child each spec goes through a one-shot
:class:`~repro.harness.executor.BatchExecutor` with the service's
:class:`~repro.harness.cache.ResultCache` attached: cache-first lookup,
execution, and the locked ledger append all happen on the worker side,
so the parent service never blocks on a measurement and concurrent
workers exercise the cache's multi-writer guarantees for real.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import WorkerCrashed, WorkerTimeout
from repro.harness.executor import SpecWorker
from repro.service.protocol import Spec


def _service_entry(spec: Spec, cache_root: Optional[str] = None):
    """Child-process entry: cache-first execute via the harness core."""
    from repro.harness import BatchExecutor, ResultCache

    cache = ResultCache(root=cache_root) if cache_root else None
    harness = BatchExecutor(workers=0, cache=cache, retries=0)
    return harness.run_one(spec, sweep="service")


@dataclass
class WorkerOutcome:
    """What one execution attempt produced (exactly one field set)."""

    record: object = None
    #: "ok" | "timeout" | "crash" | "error"
    kind: str = "ok"
    error: str = ""
    pid: int = 0


class WorkerRunner:
    """Synchronous single-job runner over warm workers.

    The server calls :meth:`run` from executor threads (one per busy
    slot); each call takes an idle warm worker or forks one.  The
    in-flight registry maps job ids to the workers serving them: the
    ``stats`` op and chaos tests read :meth:`active_pids`, and a cancel
    goes through :meth:`kill`, which can only hit the job it names.
    """

    def __init__(
        self,
        *,
        timeout_s: Optional[float] = None,
        cache_root: Optional[str] = None,
        entry: Optional[Callable] = None,
    ) -> None:
        self.timeout_s = timeout_s
        if entry is None:
            entry = functools.partial(_service_entry, cache_root=cache_root)
        self._entry = entry
        self._lock = threading.Lock()
        self._idle: list[SpecWorker] = []
        self._busy: dict[str, SpecWorker] = {}
        self._closed = False

    def active_pids(self) -> dict[str, int]:
        with self._lock:
            return {job_id: w.pid for job_id, w in self._busy.items()}

    def kill(self, job_id: str) -> bool:
        """SIGKILL the worker serving ``job_id``; False if it is not in flight.

        The job's :meth:`run` then reports a crash and retires the worker.
        """
        with self._lock:
            worker = self._busy.pop(job_id, None)
        if worker is None:
            return False
        worker.kill()
        return True

    def close(self) -> None:
        """Retire every warm worker; kill the busy ones."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            busy = list(self._busy.values())
        for worker in busy:
            worker.kill()
        for worker in idle:
            worker.close()

    def _checkout(self) -> SpecWorker:
        with self._lock:
            while self._idle:
                worker = self._idle.pop()
                if worker.is_alive():
                    return worker
                # Died while idle: not any job's fault, just replace it.
                worker.close()
        return SpecWorker(self._entry)

    def run(self, job_id: str, spec: Spec,
            *, on_start: Optional[Callable[[int], None]] = None
            ) -> WorkerOutcome:
        """Execute ``spec`` in a warm worker; never raises."""
        outcome = WorkerOutcome(kind="crash")
        worker: Optional[SpecWorker] = None
        try:
            worker = self._checkout()
            outcome.pid = worker.pid
            with self._lock:
                self._busy[job_id] = worker
            if on_start is not None:
                on_start(worker.pid)
            outcome.record = worker.run(spec, timeout_s=self.timeout_s)
            outcome.kind = "ok"
        except WorkerTimeout as exc:
            outcome.kind, outcome.error = "timeout", str(exc)
        except WorkerCrashed as exc:
            outcome.kind, outcome.error = "crash", str(exc)
        except Exception as exc:  # noqa: BLE001 - spec-level failure
            outcome.kind, outcome.error = "error", repr(exc)
        finally:
            if worker is not None:
                with self._lock:
                    # A killed worker was already dropped from the registry.
                    keep = (self._busy.pop(job_id, None) is worker
                            and outcome.kind == "ok" and not self._closed)
                    if keep:
                        self._idle.append(worker)
                if not keep:
                    worker.close()
        return outcome
