"""The asyncio experiment service.

One process, four moving parts::

    TCP listener ──> admission control ──> FIFO queue ──> worker slots
    (NDJSON)         (quota, depth,        (bounded)      (one warm killable
                      dedup, cache)                        child per slot)
                           │                                   │
                       WAL journal <───── every transition ────┘
                           │
                     result cache  (digest-idempotent store)

Robustness invariants (each has a test):

* a full queue or dry quota bucket sheds with ``retry_after_s`` —
  never unbounded buffering;
* at most one active job per digest — duplicates attach;
* accepted ⇒ journaled ⇒ eventually terminal, across restarts;
* a worker crash requeues its job at most ``max_redeliveries`` times,
  then quarantines it as poison (terminal ``dead``);
* a timeout kills the worker, retries with exponential backoff, then
  dead-letters;
* SIGTERM drains: no new admissions, accepted work finishes (bounded
  by ``drain_grace_s``; the journal carries the rest to the next
  incarnation).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import AdmissionError, ProtocolError, ServiceError
from repro.harness import telemetry as tel
from repro.harness.cache import ResultCache
from repro.harness.telemetry import TelemetryBus
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    SpanRecorder,
    to_prometheus,
)
from repro.service.jobs import Job, JobState, result_summary
from repro.service.journal import Journal
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_response,
    spec_from_wire,
    spec_to_wire,
    validate_request,
)
from repro.service.queue import AdmissionQueue
from repro.service.quotas import ClientQuotas
from repro.service.workers import WorkerRunner


@dataclass
class ServiceConfig:
    """Everything the service needs, with robust defaults."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral, reported by ``ExperimentService.port``
    workers: int = 2
    queue_depth: int = 64
    #: Hard per-attempt wall-clock deadline (None: unbounded).
    timeout_s: Optional[float] = 120.0
    #: Spec-error/timeout retries per job (exponential backoff between).
    retries: int = 2
    backoff_base_s: float = 0.1
    backoff_max_s: float = 5.0
    #: Crash redeliveries per job before poison quarantine.
    max_redeliveries: int = 2
    #: Token-bucket quota per client id.
    quota_rate: float = 50.0
    quota_burst: float = 100.0
    #: Hint returned with queue-full sheds.
    retry_after_s: float = 0.5
    #: Result-cache root (None: caching and dedup-by-cache disabled).
    cache_root: Optional[str] = None
    #: Write-ahead journal path (None: no crash recovery).
    journal_path: Optional[str] = None
    #: fsync journal appends (flush-only is crash-safe for process death;
    #: fsync additionally survives power loss).
    journal_fsync: bool = False
    #: Per-stream-client event buffer; overflow drops oldest.
    stream_buffer: int = 256
    #: How long a drain waits for accepted work before handing the
    #: remainder to the journal.
    drain_grace_s: float = 30.0
    #: Optional HTTP scrape port: GET anything on it returns the
    #: Prometheus text exposition (0: ephemeral; None: no HTTP listener —
    #: the NDJSON ``metrics`` frame is always available).
    metrics_port: Optional[int] = None


#: Lifecycle/admission event names (label values of
#: ``service_events_total`` and keys of the back-compat ``counters``
#: mapping).  Declared up front so every series exists — and exports as
#: an explicit zero — before the first event fires.  Every key but
#: ``stream_dropped`` is folded from an event by
#: :data:`repro.harness.telemetry.FOLD`; a dropped stream frame cannot
#: be an event, since it happens inside the stream fan-out.
EVENT_KEYS = (
    "accepted", "attached", "cache_hits", "executed",
    "shed_queue", "shed_quota", "shed_draining",
    "retries", "timeouts", "crashes", "requeues",
    "failed", "dead", "cancelled", "recovered",
    "stream_dropped",
)


class _StreamFanout:
    """Telemetry sink fanning events out to every streaming client."""

    def __init__(self, service: "ExperimentService") -> None:
        self._service = service

    def handle(self, event: Any) -> None:
        self._service._fan_out(event)


class ExperimentService:
    """Long-running job-submission service over the experiment harness."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        bus: Optional[TelemetryBus] = None,
        worker_entry=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.bus = bus if bus is not None else TelemetryBus()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._emit = tel.Emitter(self.bus, self.registry)
        self.tracer = SpanRecorder(max_spans=4096)
        self.cache = (ResultCache(root=config.cache_root)
                      if config.cache_root else None)
        self.queue = AdmissionQueue(config.queue_depth,
                                    retry_after_s=config.retry_after_s)
        self.quotas = ClientQuotas(config.quota_rate, config.quota_burst)
        self.runner = WorkerRunner(
            timeout_s=config.timeout_s,
            cache_root=config.cache_root,
            entry=worker_entry,
        )
        self.journal: Optional[Journal] = None
        self.jobs: dict[str, Job] = {}
        self._by_digest: dict[str, Job] = {}  # latest job per digest
        self._done: dict[str, asyncio.Event] = {}
        self._backoff: dict[str, asyncio.Event] = {}  # retry delays; cancel sets
        self._streams: dict[int, asyncio.Queue] = {}
        self._stream_seq = 0
        self._seq = 1
        self._busy = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._wake = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._threads: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at = 0.0
        self._fanout = _StreamFanout(self)
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        # Instruments: the registry is the single source of truth for
        # operational state; the legacy ``counters`` mapping (and the
        # ``stats`` frame built on it) is a read-only view of
        # ``service_events_total``, which ``_emit`` folds from events.
        reg = self.registry
        self._events = reg.counter(
            "service_events_total",
            "Job lifecycle and admission events, by kind.",
            labels=("event",))
        for key in EVENT_KEYS:
            self._events.inc(0.0, event=key)
        self._frames = reg.counter(
            "service_frames_total",
            "Protocol frames handled, by op (invalid: protocol errors).",
            labels=("op",))
        self._frame_seconds = reg.histogram(
            "service_frame_seconds",
            "Frame handling latency in seconds, by op.",
            labels=("op",))
        self._queue_depth_gauge = reg.gauge(
            "service_queue_depth", "Jobs waiting in the admission queue.",
            agg="max")
        self._in_flight_gauge = reg.gauge(
            "service_in_flight", "Jobs occupying worker slots.", agg="max")
        self._streams_gauge = reg.gauge(
            "service_streams_active", "Connected telemetry-stream clients.",
            agg="max")
        for gauge in (self._queue_depth_gauge, self._in_flight_gauge,
                      self._streams_gauge):
            gauge.set(0.0)
        self._cache_requests = reg.counter(
            "service_cache_requests_total",
            "Result-cache lookups on the admission path, by outcome.",
            labels=("result",))
        self._cache_requests.inc(0.0, result="hit")
        self._cache_requests.inc(0.0, result="miss")
        self._stream_drops = reg.counter(
            "service_stream_dropped_total",
            "Telemetry events dropped by slow streaming clients "
            "(drop-oldest buffer overflow).")
        self._journal_seconds = reg.histogram(
            "service_journal_append_seconds",
            "Journal append latency in seconds (write+flush, fsync "
            "included when enabled).")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise ServiceError("service is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """Resolved HTTP scrape port (None when not configured)."""
        if self._metrics_server is None or not self._metrics_server.sockets:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def counters(self) -> dict[str, int]:
        """Legacy event-counter view, read from the metrics registry."""
        return {key: int(self._events.value(event=key))
                for key in EVENT_KEYS}

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._started_at = time.time()
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="svc-worker")
        recovered = 0
        plan = None
        if self.config.journal_path:
            plan = Journal.recover(self.config.journal_path)
            self.journal = Journal(self.config.journal_path,
                                   fsync=self.config.journal_fsync,
                                   observe=self._journal_seconds.observe)
            self._seq = max(self._seq, plan.next_seq)
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port,
            limit=MAX_FRAME_BYTES + 1024,
        )
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_scrape, self.config.host,
                self.config.metrics_port)
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if plan is not None and plan.pending:
            recovered = self._recover(plan)
        self._journal_meta("service-start", recovered=recovered)
        self._emit(tel.ServiceStarted(
            host=self.config.host, port=self.port,
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            cache=self.cache is not None,
            journal=self.journal is not None,
        ))

    def _recover(self, plan) -> int:
        """Re-admit every journaled non-terminal job (dedup-aware)."""
        requeued = 0
        cache_hits = 0
        recovered_jobs: list[Job] = []
        for entry in plan.pending:
            try:
                spec = spec_from_wire(entry["spec"])
            except ProtocolError as exc:
                # An unreadable journal entry must still terminate: fail
                # it rather than silently forgetting an accepted job.
                self._journal("failed", job_id=entry["job"],
                              digest=str(entry.get("digest")),
                              error=f"unrecoverable journal entry: {exc}")
                continue
            active = self.queue.active_for(spec.digest)
            if active is not None:
                active.subscribers.extend(entry["clients"])
                continue
            job = Job(id=entry["job"], spec=spec, client=entry["client"],
                      subscribers=list(entry["clients"]))
            self._track(job)
            self._journal("recovered", job=job)
            if self._complete_from_cache(job):
                cache_hits += 1
                continue
            recovered_jobs.append(job)
        # ``requeue`` prepends, so walk in reverse to preserve FIFO order.
        for job in reversed(recovered_jobs):
            self.queue.requeue(job)
            requeued += 1
        if requeued:
            self._wake.set()
        self._emit(tel.ServiceRecovered(
            jobs=len(plan.pending), requeued=requeued,
            cache_hits=cache_hits))
        self._gauge()
        return len(plan.pending)

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally drain accepted work, shut down."""
        if self._draining:
            return
        self._draining = True
        self._emit(tel.ServiceDraining(
            queued=len(self.queue), in_flight=self._busy))
        if self._server is not None:
            self._server.close()
        if drain:
            deadline = time.monotonic() + self.config.drain_grace_s
            while (self._busy or len(self.queue)) and \
                    time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            with contextlib.suppress(Exception):
                await self._metrics_server.wait_closed()
        # Warm workers go before the journal: none may outlive the
        # incarnation that forked it.
        self.runner.close()
        self._journal_meta("service-stop")
        self._emit(tel.ServiceStopped(
            accepted=self.counters["accepted"],
            executed=self.counters["executed"],
            cache_hits=self.counters["cache_hits"],
            attached=self.counters["attached"],
            shed=(self.counters["shed_queue"] + self.counters["shed_quota"]
                  + self.counters["shed_draining"]),
            failed=self.counters["failed"],
            dead=self.counters["dead"],
            cancelled=self.counters["cancelled"],
            uptime_s=time.time() - self._started_at,
        ))
        if self.journal is not None:
            self.journal.close()
        if self._threads is not None:
            self._threads.shutdown(wait=False)
        self._stopped.set()

    # ------------------------------------------------------------------
    # journaling / bookkeeping helpers
    # ------------------------------------------------------------------
    def _journal(self, ev: str, *, job: Optional[Job] = None,
                 job_id: Optional[str] = None, digest: str = "",
                 **fields: Any) -> None:
        if self.journal is None:
            return
        if job is not None:
            if ev in ("accepted", "attached", "recovered"):
                fields = {**job.journal_fields(), **fields}
            else:
                fields = {"job": job.id, "digest": job.digest, **fields}
        elif job_id is not None:
            fields = {"job": job_id, "digest": digest, **fields}
        self.journal.append(ev, **fields)

    def _journal_meta(self, ev: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(ev, **fields)

    def _track(self, job: Job) -> None:
        self.jobs[job.id] = job
        self._by_digest[job.digest] = job
        self._done[job.id] = asyncio.Event()

    def _gauge(self) -> None:
        self._queue_depth_gauge.set(float(len(self.queue)))
        self._in_flight_gauge.set(float(self._busy))
        self._emit(tel.QueueDepthChanged(
            depth=len(self.queue), in_flight=self._busy))

    def _next_id(self) -> str:
        job_id = f"j-{self._seq:06d}"
        self._seq += 1
        return job_id

    def _finalize(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished_at = time.time()
        self.queue.finish(job)
        event = self._done.get(job.id)
        if event is not None:
            event.set()
        self._wake.set()

    def _complete_from_cache(self, job: Job) -> bool:
        """DONE straight from the result cache, if the digest is stored."""
        if self.cache is None:
            return False
        record = self.cache.get(job.spec)
        self._cache_requests.inc(result="hit" if record is not None
                                 else "miss")
        if record is None:
            return False
        job.source = "cache"
        job.result = result_summary(record)
        self._journal("finished", job=job, source="cache")
        self._finalize(job, JobState.DONE)
        self._emit(tel.JobCacheHit(
            job=job.id, digest=job.digest, client=job.client))
        return True

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _submit(self, frame: dict[str, Any], peer: str) -> dict[str, Any]:
        spec = spec_from_wire(frame["spec"])
        client = frame.get("client") or peer
        if self._draining:
            self._emit(tel.JobShed(client=client, reason="draining",
                                   retry_after_s=0.0))
            return error_response("submit", "service is draining",
                                  reason="draining")
        # Dedup: an active (queued/running) or successfully-completed job
        # for this digest absorbs the submission.  Failed/dead/cancelled
        # digests do NOT attach — a client resubmitting one deserves a
        # fresh attempt, not a replay of the old corpse.
        known = self.queue.active_for(spec.digest)
        if known is None:
            remembered = self._by_digest.get(spec.digest)
            if remembered is not None and remembered.state is JobState.DONE:
                known = remembered
        if known is not None:
            known.subscribers.append(client)
            self._journal("attached", job=known, client=client)
            self._emit(tel.JobAttached(
                job=known.id, digest=known.digest, client=client,
                state=known.state.value))
            response = {"ok": True, "op": "submit", "attached": True,
                        **known.snapshot()}
            return response
        job = Job(id=self._next_id(), spec=spec, client=client,
                  subscribers=[client])
        # Cache check before quota: answering from the store costs no
        # worker slot, so it should never be shed.
        self._track(job)
        self._journal("accepted", job=job)
        if self._complete_from_cache(job):
            return {"ok": True, "op": "submit", "attached": False,
                    **job.snapshot()}
        wait_s = self.quotas.admit(client)
        if wait_s > 0.0:
            self._forget(job)
            self._journal("cancelled", job=job, reason="quota")
            self._emit(tel.JobShed(client=client, reason="quota",
                                   retry_after_s=wait_s))
            return error_response("submit", "client quota exhausted",
                                  reason="quota", retry_after_s=wait_s)
        try:
            self.queue.push(job)
        except AdmissionError as exc:
            self._forget(job)
            self._journal("cancelled", job=job, reason="queue-full")
            self._emit(tel.JobShed(client=client, reason=exc.reason,
                                   retry_after_s=exc.retry_after_s))
            return error_response("submit", str(exc), reason=exc.reason,
                                  retry_after_s=exc.retry_after_s)
        self._emit(tel.JobAccepted(
            job=job.id, digest=job.digest, kind=job.kind, client=client,
            queue_depth=len(self.queue)))
        self._gauge()
        self._wake.set()
        return {"ok": True, "op": "submit", "attached": False,
                **job.snapshot()}

    def _forget(self, job: Job) -> None:
        """Undo :meth:`_track` for a job that was never admitted."""
        self.jobs.pop(job.id, None)
        self._done.pop(job.id, None)
        if self._by_digest.get(job.digest) is job:
            del self._by_digest[job.digest]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._busy < self.config.workers and len(self.queue):
                job = self.queue.pop()
                if job is None:  # pragma: no cover - len() guards this
                    break
                self._busy += 1
                asyncio.ensure_future(self._run_job(job))
                self._gauge()

    def _note_started(self, job: Job, pid: int) -> None:
        job.pid = pid
        self._journal("started", job=job, attempt=job.attempts, pid=pid)
        self._emit(tel.JobStarted(
            job=job.id, digest=job.digest, attempt=job.attempts, pid=pid))

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        config = self.config
        try:
            while True:
                job.state = JobState.RUNNING
                job.attempts += 1
                job.started_at = time.time()

                def _on_start(pid: int, job=job) -> None:
                    loop.call_soon_threadsafe(self._note_started, job, pid)

                span = self.tracer.start(
                    f"job:{job.kind}", track="workers", job=job.id,
                    digest=job.digest[:12], attempt=job.attempts)
                outcome = await loop.run_in_executor(
                    self._threads, lambda: self.runner.run(
                        job.id, job.spec, on_start=_on_start))
                self.tracer.finish(span, outcome=outcome.kind)
                if job.cancel_requested:
                    self._end_cancelled(job, "cancelled while running")
                    return
                if outcome.kind == "ok":
                    job.source = "executed"
                    job.result = result_summary(outcome.record)
                    job.error = None
                    self._journal("finished", job=job, source="executed")
                    self._emit(tel.JobFinished(
                        job=job.id, digest=job.digest,
                        time_s=job.result.get("time_s", 0.0),
                        energy_j=job.result.get("energy_j", 0.0),
                        watts=job.result.get("watts", 0.0),
                        wall_s=job.result.get("wall_s", 0.0)))
                    self._finalize(job, JobState.DONE)
                    return
                if outcome.kind == "crash":
                    self._emit(tel.WorkerCrashDetected(
                        job=job.id, digest=job.digest, pid=outcome.pid))
                    job.redeliveries += 1
                    job.error = outcome.error
                    if job.redeliveries > config.max_redeliveries:
                        # Poison quarantine: this spec keeps killing its
                        # workers; stop redelivering it.
                        self._journal("dead", job=job, reason="poison",
                                      error=outcome.error)
                        self._emit(tel.JobDead(
                            job=job.id, digest=job.digest, reason="poison",
                            attempts=job.attempts,
                            redeliveries=job.redeliveries))
                        self._finalize(job, JobState.DEAD)
                        return
                    job.state = JobState.QUEUED
                    self._journal("requeued", job=job,
                                  redelivery=job.redeliveries)
                    self._emit(tel.JobRequeued(
                        job=job.id, digest=job.digest,
                        redelivery=job.redeliveries, error=outcome.error))
                    self.queue.requeue(job)
                    self._wake.set()
                    self._gauge()
                    return  # slot freed in ``finally``; dispatcher re-runs
                # Spec error or timeout: bounded exponential-backoff
                # retries, then a terminal state.
                job.failures += 1
                job.error = outcome.error
                if job.failures <= config.retries:
                    delay = min(
                        config.backoff_base_s * (2 ** (job.failures - 1)),
                        config.backoff_max_s)
                    self._journal("retry", job=job, attempt=job.attempts,
                                  delay_s=delay, error=outcome.error)
                    self._emit(tel.JobRetried(
                        job=job.id, digest=job.digest, attempt=job.attempts,
                        delay_s=delay, error=outcome.error,
                        reason=outcome.kind))
                    wake = self._backoff[job.id] = asyncio.Event()
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(wake.wait(), delay)
                    del self._backoff[job.id]
                    if job.cancel_requested:
                        # Nothing was in flight to kill; end it here
                        # rather than run another attempt.
                        self._end_cancelled(job, "cancelled while backing off")
                        return
                    continue
                if outcome.kind == "timeout":
                    # Dead-letter: the spec never fits its deadline.
                    self._journal("dead", job=job, reason="timeout",
                                  error=outcome.error)
                    self._emit(tel.JobDead(
                        job=job.id, digest=job.digest, reason="timeout",
                        attempts=job.attempts,
                        redeliveries=job.redeliveries))
                    self._finalize(job, JobState.DEAD)
                    return
                self._journal("failed", job=job, error=outcome.error)
                self._emit(tel.JobFailed(
                    job=job.id, digest=job.digest, attempts=job.attempts,
                    error=outcome.error))
                self._finalize(job, JobState.FAILED)
                return
        finally:
            self._busy -= 1
            self._wake.set()
            self._gauge()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _find_job(self, key: str) -> Optional[Job]:
        return self.jobs.get(key) or self._by_digest.get(key)

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "unknown"
        stream_id: Optional[int] = None
        sender: Optional[asyncio.Task] = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized frame: framing is lost, shed and close.
                    self._frames.inc(op="invalid")
                    await self._send(writer, error_response(
                        None, "frame exceeds size limit",
                        reason="oversized"))
                    break
                if not line:
                    break  # EOF / half-close: clean disconnect
                try:
                    frame = validate_request(decode_frame(line))
                except ProtocolError as exc:
                    self._frames.inc(op="invalid")
                    await self._send(writer, error_response(
                        None, str(exc), reason="protocol"))
                    continue
                op = frame["op"]
                started = time.perf_counter()
                response = await self._dispatch(frame, peer)
                self._frames.inc(op=op)
                self._frame_seconds.observe(
                    time.perf_counter() - started, op=op)
                await self._send(writer, response)
                if frame["op"] == "stream" and stream_id is None:
                    # Subscribe only after the ack is on the wire, so the
                    # client never sees an event frame before its response.
                    stream_id, sender = self._subscribe_stream(writer)
                if frame["op"] == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away mid-write; nothing to salvage
        finally:
            if stream_id is not None:
                self._streams.pop(stream_id, None)
                self._streams_gauge.set(float(len(self._streams)))
            if sender is not None:
                sender.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await sender
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, frame: dict[str, Any],
                        peer: str) -> dict[str, Any]:
        op = frame["op"]
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "submit":
            try:
                return self._submit(frame, peer)
            except ProtocolError as exc:
                return error_response("submit", str(exc), reason="protocol")
        if op == "stats":
            return self._stats()
        if op == "metrics":
            return self._metrics()
        if op == "stream":
            return {"ok": True, "op": "stream",
                    "buffer": self.config.stream_buffer}
        if op == "shutdown":
            drain = frame.get("drain", True)
            asyncio.ensure_future(self.stop(drain=drain))
            return {"ok": True, "op": "shutdown", "drain": drain}
        job = self._find_job(frame["job"])
        if job is None:
            return error_response(op, f"unknown job {frame['job']!r}",
                                  reason="unknown-job")
        if op == "status":
            return {"ok": True, "op": "status", **job.snapshot()}
        if op == "result":
            timeout = frame.get("timeout_s")
            event = self._done.get(job.id)
            if not job.terminal and event is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        event.wait(),
                        timeout if timeout is not None else None)
            if not job.terminal:
                return error_response(
                    "result",
                    f"job {job.id} not terminal within {timeout}s",
                    reason="wait-timeout")
            return {"ok": True, "op": "result", **job.snapshot()}
        if op == "cancel":
            return self._cancel(job)
        return error_response(op, f"unhandled op {op!r}",
                              reason="protocol")  # pragma: no cover

    def _cancel(self, job: Job) -> dict[str, Any]:
        if job.terminal:
            return {"ok": True, "op": "cancel", "cancelled": False,
                    **job.snapshot()}
        if self.queue.remove(job):
            self._end_cancelled(job, "cancelled while queued")
            self._gauge()
            return {"ok": True, "op": "cancel", "cancelled": True,
                    **job.snapshot()}
        # Running: flag it and kill its worker (by job, never by pid: a
        # warm worker outlives its jobs); the crash path converts the
        # flag into a CANCELLED terminal state instead of a requeue.
        job.cancel_requested = True
        self.runner.kill(job.id)
        backoff = self._backoff.get(job.id)
        if backoff is not None:  # between attempts: end the delay now
            backoff.set()
        return {"ok": True, "op": "cancel", "cancelled": True,
                "pending": True, **job.snapshot()}

    def _end_cancelled(self, job: Job, error: str) -> None:
        """Terminal state for a client's cancel."""
        job.error = error
        self._journal("cancelled", job=job, reason="client")
        self._emit(tel.JobCancelled(job=job.id, digest=job.digest))
        self._finalize(job, JobState.CANCELLED)

    def _stats(self) -> dict[str, Any]:
        active = [{"job": job_id, "pid": pid}
                  for job_id, pid in sorted(self.runner.active_pids().items())]
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "ok": True,
            "op": "stats",
            "uptime_s": time.time() - self._started_at,
            "queue_depth": len(self.queue),
            "in_flight": self._busy,
            "workers": self.config.workers,
            "draining": self._draining,
            "active": active,
            "jobs": states,
            "counters": dict(self.counters),
            "cache": (self.cache.info() if self.cache is not None else None),
        }

    def _metrics(self) -> dict[str, Any]:
        """Observability frame: exposition + snapshot JSON + top spans."""
        snapshot = self.registry.snapshot()
        return {
            "ok": True,
            "op": "metrics",
            "prometheus": to_prometheus(snapshot),
            "snapshot": snapshot.to_json_obj(),
            "spans": [span.to_json_obj() for span in self.tracer.top(20)],
            "dropped_spans": self.tracer.dropped,
        }

    async def _handle_scrape(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.1 GET handler for Prometheus scrapers."""
        try:
            while True:  # consume the request head; the path is ignored
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = to_prometheus(self.registry.snapshot()).encode("utf-8")
            head = (
                "HTTP/1.1 200 OK\r\n"
                f"Content-Type: {PROMETHEUS_CONTENT_TYPE}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # scraper went away; nothing to salvage
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def _subscribe_stream(self, writer: asyncio.StreamWriter):
        if not self._streams:
            self.bus.subscribe(self._fanout)
        self._stream_seq += 1
        stream_id = self._stream_seq
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=max(1, self.config.stream_buffer))
        self._streams[stream_id] = queue
        self._streams_gauge.set(float(len(self._streams)))
        sender = asyncio.ensure_future(self._stream_sender(queue, writer))
        return stream_id, sender

    def _fan_out(self, event: Any) -> None:
        frame = {"event": type(event).__name__,
                 **dataclasses.asdict(event)}
        for queue in self._streams.values():
            if queue.full():
                # Slow consumer: drop the oldest event, never block the
                # service on a client's socket.
                with contextlib.suppress(asyncio.QueueEmpty):
                    queue.get_nowait()
                self._events.inc(event="stream_dropped")
                self._stream_drops.inc()
            queue.put_nowait(frame)

    async def _stream_sender(self, queue: asyncio.Queue,
                             writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(ConnectionResetError, BrokenPipeError,
                                 OSError, asyncio.CancelledError):
            while True:
                frame = await queue.get()
                writer.write(encode_frame(frame))
                await writer.drain()

    async def _send(self, writer: asyncio.StreamWriter,
                    response: dict[str, Any]) -> None:
        writer.write(encode_frame(response))
        await writer.drain()


# ----------------------------------------------------------------------
# entry point (``repro-paper serve``)
# ----------------------------------------------------------------------
def _install_signal_handlers(loop: asyncio.AbstractEventLoop,
                             service: ExperimentService) -> None:
    def _drain() -> None:
        asyncio.ensure_future(service.stop(drain=True))

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or platform without signal support


async def serve(config: ServiceConfig, bus: TelemetryBus) -> None:
    """Run a service until SIGTERM/SIGINT drains it."""
    service = ExperimentService(config, bus=bus)
    await service.start()
    _install_signal_handlers(asyncio.get_running_loop(), service)
    print(f"service listening on {config.host}:{service.port}", flush=True)
    if service.metrics_port is not None:
        print(f"metrics exposition on http://{config.host}:"
              f"{service.metrics_port}/metrics", flush=True)
    await service.serve_forever()
