"""The lifecycle events of every layer, the bus that carries them, and
the counters derived from them.

This is the one module that defines lifecycle events: the harness's
sweep and run events, the experiment service's job events and the
scheduler's per-job events.  Each class name is its ``"event"`` name on
the wire (``--events`` JSONL lines, service stream frames), so every
name is unique and says which layer emitted it.

A component emits through an :class:`Emitter`, which puts the event on
the :class:`TelemetryBus` and, when the component was given a metrics
registry, folds it into the lifecycle counters through :data:`FOLD`.
Those counters are derived from events here and nowhere else.

Sinks subscribe to the bus:

* :class:`ProgressSink` — human-readable sweep progress (stderr by
  default, so piping table output keeps working);
* :class:`SchedProgressSink` — per-job narration for ``repro-paper
  sched``;
* :class:`JsonlSink` — one JSON object per event, appended to a file;
* :class:`ListSink` — in-memory capture for tests and smoke checks.

The bus measures its own cost: every :meth:`TelemetryBus.emit` is timed
and the sweep's share is reported in :class:`SweepFinished`
(``telemetry_s``), so the claim that structured telemetry is near-free
is a measured number, not an assertion — the same discipline the
RAPL-overhead literature demands of the measurement layer itself.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Optional, Protocol, Union


# ----------------------------------------------------------------------
# Harness events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepStarted:
    """A batch of runs begins."""

    sweep: str
    total: int
    workers: int
    cache: bool = False


@dataclass(frozen=True)
class RunStarted:
    """One spec was handed to a worker (or the serial loop)."""

    sweep: str
    index: int
    total: int
    label: str


@dataclass(frozen=True)
class RunFinished:
    """One spec executed to completion."""

    sweep: str
    index: int
    total: int
    label: str
    time_s: float
    energy_j: float
    watts: float
    wall_s: float


@dataclass(frozen=True)
class RunCached:
    """One spec was served from the result cache."""

    sweep: str
    index: int
    total: int
    label: str
    time_s: float
    energy_j: float
    watts: float


@dataclass(frozen=True)
class RunRetried:
    """A worker failure triggered a bounded retry."""

    sweep: str
    index: int
    total: int
    label: str
    attempt: int
    error: str


@dataclass(frozen=True)
class RunRequeued:
    """A run was resubmitted after its own worker died.

    Unlike :class:`RunRetried`, the spec itself did not fail — the child
    process running it, and only it, died (OOM kill, SIGKILL) — so the
    resubmit counts against the redelivery budget, not the retry budget.
    """

    sweep: str
    index: int
    total: int
    label: str
    redelivery: int


@dataclass(frozen=True)
class RunFailed:
    """A spec exhausted its retry budget."""

    sweep: str
    index: int
    total: int
    label: str
    attempts: int
    error: str


@dataclass(frozen=True)
class SweepProgress:
    """Monotone completion counter (cached + executed + failed)."""

    sweep: str
    done: int
    total: int


@dataclass(frozen=True)
class SweepFinished:
    """End-of-sweep summary, including the harness's own overhead."""

    sweep: str
    total: int
    executed: int
    cached: int
    failed: int
    retried: int
    wall_s: float
    #: Cumulative wall time spent inside ``TelemetryBus.emit`` during the
    #: sweep — the measured cost of the telemetry layer itself.
    telemetry_s: float
    #: Events emitted on the bus during the sweep, this summary excluded.
    events: int


@dataclass(frozen=True)
class RunValidated:
    """One spec finished under the invariant checker (validate mode)."""

    sweep: str
    index: int
    total: int
    label: str
    #: Invariant-battery passes and total invariant evaluations — proof
    #: the checker ran, so zero violations is evidence, not silence.
    batteries: int
    checks: int
    violations: int
    unexpected: int


@dataclass(frozen=True)
class InvariantViolated:
    """One invariant violation surfaced by the checker (validate mode)."""

    sweep: str
    index: int
    label: str
    invariant: str
    category: str
    message: str
    time_s: float
    expected: bool


@dataclass(frozen=True)
class Note:
    """Free-form informational message (calibration fit notes etc.)."""

    message: str


# ----------------------------------------------------------------------
# Service events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceStarted:
    """The listener is bound and accepting submissions."""

    host: str
    port: int
    workers: int
    queue_depth: int
    cache: bool
    journal: bool


@dataclass(frozen=True)
class ServiceRecovered:
    """Restart recovery: journaled non-terminal jobs were re-admitted.

    Every re-tracked job was either completed from the cache or
    requeued, so ``requeued + cache_hits`` is the recovered count.
    """

    jobs: int
    requeued: int
    cache_hits: int


@dataclass(frozen=True)
class ServiceDraining:
    """Shutdown begun: admissions rejected, in-flight work finishing."""

    queued: int
    in_flight: int


@dataclass(frozen=True)
class ServiceStopped:
    """End-of-life summary counters."""

    accepted: int
    executed: int
    cache_hits: int
    attached: int
    shed: int
    failed: int
    dead: int
    cancelled: int
    uptime_s: float


@dataclass(frozen=True)
class JobAccepted:
    """A submission passed admission control and was queued."""

    job: str
    digest: str
    kind: str
    client: str
    queue_depth: int


@dataclass(frozen=True)
class JobAttached:
    """A duplicate digest attached to the existing job instead of re-running."""

    job: str
    digest: str
    client: str
    state: str


@dataclass(frozen=True)
class JobCacheHit:
    """A submission was answered directly from the result cache."""

    job: str
    digest: str
    client: str


@dataclass(frozen=True)
class JobShed:
    """Admission control rejected a submission (explicit backpressure)."""

    client: str
    reason: str  # queue-full | quota | draining
    retry_after_s: float


@dataclass(frozen=True)
class JobStarted:
    """A worker process began executing the job."""

    job: str
    digest: str
    attempt: int
    pid: int


@dataclass(frozen=True)
class JobRetried:
    """A failed/timed-out attempt scheduled a backoff retry."""

    job: str
    digest: str
    attempt: int
    delay_s: float
    error: str
    reason: str  # timeout | error


@dataclass(frozen=True)
class JobRequeued:
    """A crashed worker put the job back on the queue (redelivery)."""

    job: str
    digest: str
    redelivery: int
    error: str


@dataclass(frozen=True)
class WorkerCrashDetected:
    """A worker process died without reporting a result."""

    job: str
    digest: str
    pid: int


@dataclass(frozen=True)
class JobFinished:
    """The job reached DONE with a measured record."""

    job: str
    digest: str
    time_s: float
    energy_j: float
    watts: float
    wall_s: float


@dataclass(frozen=True)
class JobFailed:
    """The job exhausted its retry budget on a spec-level error."""

    job: str
    digest: str
    attempts: int
    error: str


@dataclass(frozen=True)
class JobDead:
    """Terminal dead-letter: timeout budget or redelivery budget exhausted."""

    job: str
    digest: str
    reason: str  # timeout | poison
    attempts: int
    redeliveries: int


@dataclass(frozen=True)
class JobCancelled:
    """The job was cancelled before reaching a worker."""

    job: str
    digest: str


@dataclass(frozen=True)
class QueueDepthChanged:
    """Queue/in-flight gauge, emitted on every transition."""

    depth: int
    in_flight: int


# ----------------------------------------------------------------------
# Scheduler events (``time_s`` is the simulated clock)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSubmitted:
    """A trace job arrived at the cluster."""

    index: int
    app: str
    threads: int
    time_s: float


@dataclass(frozen=True)
class JobRejected:
    """Admission control shed an arriving job (queue full)."""

    index: int
    app: str
    queue_depth: int
    time_s: float


@dataclass(frozen=True)
class JobPlaced:
    """The placement policy dispatched a queued job onto a node."""

    index: int
    app: str
    node: str
    policy: str
    wait_s: float
    time_s: float


@dataclass(frozen=True)
class SchedJobFinished:
    """A placed job completed; measured figures are for its region."""

    index: int
    app: str
    node: str
    service_s: float
    energy_j: float
    watts: float
    time_s: float


@dataclass(frozen=True)
class SchedFinished:
    """End-of-run scheduler summary."""

    policy: str
    profile: str
    submitted: int
    completed: int
    rejected: int
    makespan_s: float
    peak_power_w: float
    budget_w: float


#: Any of the event dataclasses above.
Event = Any


# ----------------------------------------------------------------------
# The fold table: lifecycle counters derived from events
# ----------------------------------------------------------------------
_RUNS, _SERVICE = "harness_runs_total", "service_events_total"

#: ``JobShed.reason`` -> its ``service_events_total`` key.
SHED_KEYS = {"queue-full": "shed_queue", "quota": "shed_quota",
             "draining": "shed_draining"}


def _always(*labels: str) -> Callable[[Event], list[tuple[str, ...]]]:
    return lambda event: [labels]


def _timeout_too(key: str) -> Callable[[Event], list[tuple[str, ...]]]:
    return lambda e: [(key,)] + [("timeouts",)] * (e.reason == "timeout")


#: Each counted event type -> (counter, rule).  The rule lists the label
#: values of every +1 one event makes.  The emitting component declares
#: the counter; event types not listed here are not counted.
FOLD: dict[type, tuple[str, Callable[[Any], list[tuple[str, ...]]]]] = {
    RunCached: (_RUNS, _always("cached")),
    RunFinished: (_RUNS, _always("executed")),
    RunFailed: (_RUNS, _always("failed")),
    RunRetried: (_RUNS, _always("retried")),
    RunRequeued: (_RUNS, _always("requeued")),
    JobAccepted: (_SERVICE, _always("accepted")),
    JobAttached: (_SERVICE, _always("attached")),
    JobCacheHit: (_SERVICE, _always("cache_hits")),
    JobFinished: (_SERVICE, _always("executed")),
    JobShed: (_SERVICE, lambda e: [(SHED_KEYS[e.reason],)]),
    JobRetried: (_SERVICE, _timeout_too("retries")),
    WorkerCrashDetected: (_SERVICE, _always("crashes")),
    JobRequeued: (_SERVICE, _always("requeues")),
    JobFailed: (_SERVICE, _always("failed")),
    JobDead: (_SERVICE, _timeout_too("dead")),
    JobCancelled: (_SERVICE, _always("cancelled")),
    ServiceRecovered: (_SERVICE, lambda e: (
        [("recovered",)] * (e.requeued + e.cache_hits))),
    JobPlaced: ("sched_jobs_dispatched_total", lambda e: [(e.policy,)]),
    JobRejected: ("sched_jobs_shed_total", _always()),
}


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
class TelemetrySink(Protocol):
    def handle(self, event: Event) -> None: ...


class TelemetryBus:
    """Dispatches typed events to subscribed sinks, timing itself.

    With no sinks subscribed, :meth:`emit` is a counter increment — the
    zero-subscriber cost is deliberately negligible so library callers
    (and the test suite) pay nothing for instrumented experiments.
    """

    def __init__(self, sinks: Iterable[TelemetrySink] = ()) -> None:
        self._sinks: list[TelemetrySink] = list(sinks)
        #: Cumulative seconds spent dispatching events.
        self.overhead_s = 0.0
        #: Total events emitted (dispatched or not).
        self.events_emitted = 0

    def subscribe(self, sink: TelemetrySink) -> TelemetrySink:
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: TelemetrySink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple[TelemetrySink, ...]:
        return tuple(self._sinks)

    def emit(self, event: Event) -> None:
        self.events_emitted += 1
        if not self._sinks:
            return
        t0 = time.perf_counter()
        for sink in self._sinks:
            sink.handle(event)
        self.overhead_s += time.perf_counter() - t0


class Emitter:
    """One component's way onto the bus: emit, fold and tally.

    Every event goes to ``bus`` and is counted by type in :attr:`tally`.
    With a ``registry`` (a duck-typed ``repro.obs.MetricsRegistry`` in
    which the component declared its counters), a counted event also
    bumps its counter through :data:`FOLD`.  Folding
    where the event is emitted, not in a bus sink, keeps counts exact
    when several components share one bus or when a bus has no registry
    behind it.
    """

    def __init__(self, bus: TelemetryBus, registry: Any = None) -> None:
        self.bus = bus
        self.registry = registry
        self.tally: Counter[type] = Counter()

    def __call__(self, event: Event) -> None:
        self.tally[type(event)] += 1
        rule = FOLD.get(type(event)) if self.registry is not None else None
        if rule is not None:
            name, increments = rule
            counter = self.registry.get(name)
            for values in increments(event):
                counter.inc(**dict(zip(counter.label_names, values)))
        self.bus.emit(event)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class ListSink:
    """Appends every event to :attr:`events` (tests, smoke checks)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, *types: type) -> list[Event]:
        return [e for e in self.events if isinstance(e, types)]


class ProgressSink:
    """Human-readable progress renderer (one line per event that matters)."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream

    @property
    def stream(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def _line(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def handle(self, event: Event) -> None:
        if isinstance(event, SweepStarted):
            mode = f"{event.workers} workers" if event.workers >= 2 else "serial"
            cache = ", cache on" if event.cache else ""
            self._line(f"sweep {event.sweep}: {event.total} runs ({mode}{cache})")
        elif isinstance(event, RunFinished):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label:<36} "
                f"{event.time_s:>8.2f} s {event.energy_j:>10.1f} J "
                f"{event.watts:>7.1f} W  ({event.wall_s:.2f}s wall)"
            )
        elif isinstance(event, RunCached):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label:<36} "
                f"{event.time_s:>8.2f} s {event.energy_j:>10.1f} J "
                f"{event.watts:>7.1f} W  (cached)"
            )
        elif isinstance(event, RunRetried):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label}: "
                f"retry {event.attempt} after {event.error}"
            )
        elif isinstance(event, RunRequeued):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label}: "
                f"requeued (redelivery {event.redelivery}, worker lost)"
            )
        elif isinstance(event, RunFailed):
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label}: "
                f"FAILED after {event.attempts} attempts: {event.error}"
            )
        elif isinstance(event, SweepFinished):
            share = (
                f" ({event.telemetry_s / event.wall_s:.2%} of wall)"
                if event.wall_s > 0 else ""
            )
            self._line(
                f"sweep {event.sweep}: {event.total} runs in "
                f"{event.wall_s:.2f} s — {event.executed} executed, "
                f"{event.cached} cached, {event.failed} failed, "
                f"{event.retried} retried; telemetry "
                f"{event.telemetry_s * 1e3:.2f} ms{share}"
            )
        elif isinstance(event, RunValidated):
            verdict = (
                "clean" if event.violations == 0
                else f"{event.unexpected} unexpected / "
                     f"{event.violations - event.unexpected} expected"
            )
            self._line(
                f"[{event.index + 1:>3}/{event.total}] {event.label:<36} "
                f"validated: {event.checks} checks in {event.batteries} "
                f"batteries — {verdict}"
            )
        elif isinstance(event, InvariantViolated):
            marker = "expected" if event.expected else "VIOLATION"
            self._line(
                f"    {marker}: {event.invariant} ({event.category}) "
                f"in {event.label}: {event.message}"
            )
        elif isinstance(event, Note):
            self._line(event.message)
        # SweepProgress / RunStarted are intentionally silent here: the
        # per-run completion lines already carry index/total.  So are the
        # other layers' events: ``repro-paper validate`` sends scheduler
        # events through this sink.


class SchedProgressSink(ProgressSink):
    """Per-job scheduler narration (stderr by default).

    Harness events fall through silently, as :class:`ProgressSink` does
    for scheduler events.
    """

    def handle(self, event: Event) -> None:
        if isinstance(event, JobSubmitted):
            self._line(
                f"t={event.time_s:7.2f}s  submit j{event.index:<3} "
                f"{event.app} (t{event.threads})"
            )
        elif isinstance(event, JobRejected):
            self._line(
                f"t={event.time_s:7.2f}s  REJECT j{event.index:<3} "
                f"{event.app} (queue full at {event.queue_depth})"
            )
        elif isinstance(event, JobPlaced):
            self._line(
                f"t={event.time_s:7.2f}s  place  j{event.index:<3} "
                f"{event.app} -> {event.node} "
                f"[{event.policy}] after {event.wait_s:.2f}s queued"
            )
        elif isinstance(event, SchedJobFinished):
            self._line(
                f"t={event.time_s:7.2f}s  done   j{event.index:<3} "
                f"{event.app} on {event.node}: {event.service_s:.2f} s, "
                f"{event.energy_j:.1f} J, {event.watts:.1f} W"
            )
        elif isinstance(event, SchedFinished):
            self._line(
                f"sched [{event.policy}/{event.profile}]: "
                f"{event.completed}/{event.submitted} jobs "
                f"({event.rejected} rejected), makespan "
                f"{event.makespan_s:.1f} s, peak {event.peak_power_w:.1f} W "
                f"of {event.budget_w:.1f} W budget"
            )


class JsonlSink:
    """Appends one JSON object per event to ``path``.

    The file is opened lazily on the first event and kept open (line
    buffered); call :meth:`close` to release it early.  Each line is
    ``{"event": <type name>, ...fields}``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None

    def handle(self, event: Event) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", buffering=1)
        payload = {"event": type(event).__name__}
        payload.update(dataclasses.asdict(event))
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def stderr_bus() -> TelemetryBus:
    """A bus with a stderr progress renderer attached (CLI default)."""
    return TelemetryBus([ProgressSink()])
