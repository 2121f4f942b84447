"""Spec execution: serial, or fanned out over killable worker slots.

:func:`execute_spec` is the one code path that turns a spec of any kind
(:class:`~repro.harness.spec.Spec`) into its record — the serial loop, the
worker children, the smoke test and the benchmarks all call it, which is
what makes "parallel is bit-identical to serial" a checkable property
rather than a hope.

:class:`SpecWorker` is the one child-process mechanism: a warm, killable
child running one spec at a time, so its death
(:class:`~repro.errors.WorkerCrashed`) or overrun
(:class:`~repro.errors.WorkerTimeout`) is charged to exactly that spec.
Sweeps and the experiment service both run on it;
:func:`run_spec_subprocess` is its one-job use.

:class:`BatchExecutor` adds the sweep machinery on top:

* result cache lookup before any work is scheduled;
* ``workers >= 2`` fans cache misses out over that many worker slots
  (the runs are deterministic, independent and CPU-bound — exactly the
  shape the GIL starves and separate processes rescue); anything less,
  or a host that cannot fork, runs serially in-process;
* results always return in input order, regardless of completion order;
* bounded retry of spec failures, and bounded requeue of a spec whose
  child died, so a poison spec fails instead of looping;
* a cooperative cancellation hook (``run(..., cancel=event)``) so
  long sweeps can be abandoned between runs;
* every step narrated as typed telemetry events on the bus.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import os
import signal
import stat
import sys
import threading
import time
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import HarnessError, SweepCancelled, WorkerCrashed, WorkerTimeout

from repro.harness import telemetry as tel
from repro.harness.cache import ResultCache
from repro.harness.record import MeasurementRecord
from repro.harness.spec import Spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.validate.violations import ValidationReport


def execute_spec(spec: Spec) -> MeasurementRecord:
    """Run one spec of any kind in-process (:meth:`Spec.execute`)."""
    return spec.execute()


def _plain_entry(spec: Spec) -> tuple[MeasurementRecord, None]:
    """Worker/serial entry for normal sweeps (no validation report)."""
    return execute_spec(spec), None


def _validated_entry(spec: Spec) -> "tuple[MeasurementRecord, ValidationReport]":
    """Worker/serial entry for validate-mode sweeps.

    The report is all scalars, so it crosses the process boundary like
    the record does.
    """
    from repro.validate.runner import validate_spec

    return validate_spec(spec)


def _prepend_parent_sys_path(paths: list[str]) -> None:
    """Put the parent's ``sys.path`` entries ahead of the child's own."""
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)


def _fork_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _reset_inherited_signals() -> None:
    """Detach fork-inherited signal plumbing in a worker child.

    A child forked from an asyncio parent inherits the parent's signal
    wakeup fd — one end of a socketpair the *parent's* event loop reads.
    If this child then receives SIGTERM (e.g. the parent reaping it after
    a result), the inherited C-level handler writes the signal number
    into that shared socket and the parent's loop dispatches it as if
    the parent itself had been signalled.  Detach the fd and restore
    default dispositions before running any work.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass


def _detach_inherited_fds(keep: int) -> None:
    """Point inherited descriptors but stdio, pipes and ``keep`` at /dev/null.

    A long-lived worker forked from the service would otherwise hold the
    service's listening socket, its client connections, its journal (and
    the journal's ``flock``) and the parent ends of its siblings' worker
    connections: a connection the service closes would stay open, a
    stopped service's journal would stay locked, and a sibling would not
    see its parent's death as EOF.  Pipes stay: one of them is the
    sentinel ``multiprocessing`` watches to bound ``Process.join``.
    Descriptors are replaced, not closed, so an inherited object that
    later closes "its" fd closes /dev/null rather than a file this child
    opened since.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no procfs: keep what was inherited
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd in (keep, null):
                continue
            with contextlib.suppress(OSError):
                if not stat.S_ISFIFO(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
    finally:
        os.close(null)


def _worker_main(conn, paths: list[str], entry) -> None:
    """Child-side loop: ``entry(spec)`` for each spec received, in turn.

    Serves until the parent's end of the pipe closes (the parent retired
    this worker, or died).  One job at a time, so a death is always
    attributable to the job in hand.
    """
    _reset_inherited_signals()
    _detach_inherited_fds(conn.fileno())
    _prepend_parent_sys_path(paths)
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            return
        try:
            outcome = ("ok", entry(spec))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            outcome = ("err", exc)
        try:
            conn.send(outcome)
        except Exception:
            # Unpicklable result/exception: degrade to a repr the parent
            # can still raise as a HarnessError.
            conn.send(("err", HarnessError(repr(outcome[1]))))


def _kill_process(proc, grace_s: float) -> None:
    proc.terminate()
    proc.join(grace_s)
    if proc.is_alive():  # SIGTERM ignored
        proc.kill()
        proc.join(grace_s)


class SpecWorker:
    """One killable child process running specs sent to it, one at a time.

    The child forks on construction and calls ``entry(spec)`` for every
    spec it is sent.  :meth:`run` is :meth:`send` then :meth:`receive`;
    a worker is waitable by :func:`multiprocessing.connection.wait`, ready
    once its child answered or died.  After anything but a result
    (timeout, crash, spec error) the caller should :meth:`close` the
    worker, not reuse it.
    """

    def __init__(self, entry: Callable = _plain_entry, *,
                 grace_s: float = 2.0) -> None:
        ctx = _fork_context()
        self.grace_s = grace_s
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, list(sys.path), entry),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self.pid: int = self._proc.pid
        self._spec: Optional[Spec] = None

    def is_alive(self) -> bool:
        return self._proc.is_alive()

    def fileno(self) -> int:
        return self._conn.fileno()

    def run(self, spec: Spec, *, timeout_s: Optional[float] = None):
        """Execute ``spec`` in the child; returns whatever ``entry`` returns.

        Raises :class:`~repro.errors.WorkerTimeout` when the child exceeds
        ``timeout_s`` (it is terminated first, so a runaway run cannot
        leak), :class:`~repro.errors.WorkerCrashed` when the child dies
        without reporting a result (OOM kill, SIGKILL, hard crash), and
        re-raises the entry's own exception for ordinary spec failures.
        """
        self.send(spec)
        return self.receive(timeout_s=timeout_s)

    def send(self, spec: Spec) -> None:
        """Start ``spec`` in the child; :meth:`receive` collects its outcome."""
        self._spec = spec
        try:
            self._conn.send(spec)
        except OSError as exc:
            raise self._crashed() from exc

    def receive(self, *, timeout_s: Optional[float] = None):
        """The outcome of the spec last sent, raising as :meth:`run` does."""
        try:
            ready = self._conn.poll(timeout_s)
            if ready:
                status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._crashed() from exc
        if not ready:
            _kill_process(self._proc, self.grace_s)
            raise WorkerTimeout(
                f"{self._spec.describe()} exceeded its {timeout_s:.3g}s "
                f"deadline (worker pid {self.pid} killed)"
            )
        if status == "err":
            raise payload
        return payload

    def _crashed(self) -> WorkerCrashed:
        self._proc.join(self.grace_s)
        return WorkerCrashed(
            f"worker pid {self.pid} died without a result for "
            f"{self._spec.describe()} (exitcode {self._proc.exitcode})"
        )

    def kill(self) -> None:
        """SIGKILL the child; a run in progress reports a crash.

        Safe from any thread: a child already reaped is not signalled,
        so its pid cannot name another process.
        """
        with contextlib.suppress(OSError):
            self._proc.kill()

    def close(self) -> None:
        """Retire the worker: end its loop, reap it, kill it if it lingers."""
        self._conn.close()
        self._proc.join(self.grace_s)
        if self._proc.is_alive():
            _kill_process(self._proc, self.grace_s)


def run_spec_subprocess(
    spec: Spec,
    *,
    timeout_s: Optional[float] = None,
    entry: Callable = _plain_entry,
    grace_s: float = 2.0,
    on_start: Optional[Callable[[int], None]] = None,
):
    """Execute one spec in a fresh, killable child: a one-job :class:`SpecWorker`.

    Returns whatever ``entry`` returns (``(record, report)`` for the
    default entries) and raises as :meth:`SpecWorker.run` does.
    ``on_start`` receives the child's pid as soon as it is running —
    chaos tests use it to target (or observe) the worker.
    """
    worker = SpecWorker(entry, grace_s=grace_s)
    try:
        if on_start is not None:
            on_start(worker.pid)
        return worker.run(spec, timeout_s=timeout_s)
    finally:
        worker.close()


class BatchExecutor:
    """Fans spec batches out to workers, cache-first.

    ``workers <= 1`` executes serially in-process (the deterministic
    reference path); ``workers >= 2`` runs on that many
    :class:`SpecWorker` slots.  ``cache``
    and ``bus`` are optional — by default nothing is persisted and
    telemetry is emitted into the void at near-zero cost.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        bus: Optional[tel.TelemetryBus] = None,
        retries: int = 2,
        max_requeues: int = 2,
        validate: bool = False,
        max_violation_events: int = 10,
        registry=None,
        tracer=None,
    ) -> None:
        if retries < 0:
            raise HarnessError(f"retries must be >= 0, got {retries!r}")
        if max_requeues < 0:
            raise HarnessError(
                f"max_requeues must be >= 0, got {max_requeues!r}")
        self.workers = max(0, int(workers))
        self.cache = cache
        self.bus = bus if bus is not None else tel.TelemetryBus()
        self.retries = retries
        #: Redelivery budget per spec when its worker process dies (the
        #: poison-job bound: a spec that keeps killing workers is failed
        #: rather than requeued forever).
        self.max_requeues = max_requeues
        #: Run every spec under the invariant checker and collect
        #: :class:`~repro.validate.violations.ValidationReport` objects in
        #: :attr:`validation_reports` (keyed by input index).  Cache hits
        #: skip validation — validate sweeps normally run uncached.
        self.validate = validate
        self.max_violation_events = max_violation_events
        self.validation_reports: dict[int, "ValidationReport"] = {}
        #: Optional observability hooks, duck-typed so this module never
        #: imports :mod:`repro.obs`: ``registry`` is a
        #: ``repro.obs.MetricsRegistry`` (or anything with the same
        #: counter/histogram factories and ``get``), ``tracer`` a
        #: ``SpanRecorder``.
        #: ``None`` (the default) keeps the hot path bare — the
        #: instrumented-vs-bare overhead benchmark compares against it.
        self.registry = registry
        self.tracer = tracer
        self._cache_lookups = None
        self._cache_puts = None
        self._run_seconds = None
        if registry is not None:
            runs = registry.counter(
                "harness_runs_total",
                "Per-spec run outcomes, by status.", labels=("status",))
            for status in ("cached", "executed", "failed", "retried",
                           "requeued"):
                runs.inc(0.0, status=status)
            self._cache_lookups = registry.counter(
                "harness_cache_requests_total",
                "Result-cache lookups before scheduling work, by outcome.",
                labels=("result",))
            self._cache_puts = registry.counter(
                "harness_cache_puts_total",
                "Records written to the result cache after execution.")
            self._run_seconds = registry.histogram(
                "harness_run_seconds",
                "Per-spec execution wall seconds (cache hits excluded).")

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[Spec],
        *,
        sweep: str = "sweep",
        cancel: Optional[threading.Event] = None,
    ) -> list[MeasurementRecord]:
        """Execute every spec; results are in input order.

        Raises :class:`HarnessError` if any spec still fails after the
        retry budget; the error chains the first underlying exception.
        ``cancel`` is a cooperative abort hook: once set, no further spec
        is started and the sweep raises :class:`SweepCancelled` (runs
        already completed keep their cache entries and telemetry).
        """
        specs = list(specs)
        bus = self.bus
        t_start = time.perf_counter()
        tel_before = bus.overhead_s
        events_before = bus.events_emitted
        total = len(specs)
        records: list[Optional[MeasurementRecord]] = [None] * total
        # A fresh emitter per sweep: its tally is this sweep's outcomes.
        self._emit = emit = tel.Emitter(bus, self.registry)
        self._errors: dict[int, BaseException] = {}
        self._entry = _validated_entry if self.validate else _plain_entry
        self._cancel = cancel
        self.validation_reports = {}

        emit(tel.SweepStarted(
            sweep=sweep, total=total, workers=self.workers,
            cache=self.cache is not None,
        ))
        self._sweep_span = None
        if self.tracer is not None:
            self._sweep_span = self.tracer.start(
                f"sweep:{sweep}", track="harness", total=total,
                workers=self.workers)

        pending: list[int] = []
        for i, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if self.cache is not None and self.registry is not None:
                self._cache_lookups.inc(
                    result="hit" if cached is not None else "miss")
            if cached is not None:
                records[i] = cached
                emit(tel.RunCached(
                    sweep=sweep, index=i, total=total, label=spec.describe(),
                    time_s=cached.time_s, energy_j=cached.energy_j,
                    watts=cached.watts,
                ))
                self._progress(sweep, records)
            else:
                pending.append(i)

        if pending:
            if self.workers >= 2 and len(pending) >= 2:
                self._run_slots(sweep, specs, pending, records)
            else:
                self._run_serial(sweep, specs, pending, records)

        wall_s = time.perf_counter() - t_start
        tally = emit.tally
        if self._sweep_span is not None:
            self.tracer.finish(
                self._sweep_span, executed=tally[tel.RunFinished],
                cached=tally[tel.RunCached], failed=tally[tel.RunFailed])
        emit(tel.SweepFinished(
            sweep=sweep, total=total,
            executed=tally[tel.RunFinished],
            cached=tally[tel.RunCached],
            failed=tally[tel.RunFailed],
            retried=tally[tel.RunRetried],
            wall_s=wall_s,
            telemetry_s=bus.overhead_s - tel_before,
            events=bus.events_emitted - events_before,
        ))
        unrun = [i for i in range(total)
                 if records[i] is None and i not in self._errors]
        if unrun and cancel is not None and cancel.is_set():
            raise SweepCancelled(
                f"sweep {sweep!r} cancelled with {len(unrun)} of {total} "
                "runs not started"
            )
        if self._errors:
            index, error = sorted(self._errors.items())[0]
            raise HarnessError(
                f"{len(self._errors)} of {total} runs failed in sweep "
                f"{sweep!r}; first: {specs[index].describe()}: {error!r}"
            ) from error
        return records  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _progress(self, sweep: str, records: list) -> None:
        done = (sum(1 for r in records if r is not None)
                + self._emit.tally[tel.RunFailed])
        self._emit(tel.SweepProgress(sweep=sweep, done=done,
                                     total=len(records)))

    def _finish(self, sweep: str, specs, i: int, record: MeasurementRecord,
                records: list, report=None) -> None:
        records[i] = record
        if self.registry is not None:
            self._run_seconds.observe(record.wall_s)
        if self.tracer is not None:
            # The run happened inside a worker; reconstruct its span on
            # this timeline anchored at completion, duration = the
            # worker-measured wall clock.
            end = self.tracer.now()
            span = self.tracer.start(
                specs[i].describe(), parent=self._sweep_span,
                at=end - record.wall_s, track="harness", index=i)
            self.tracer.finish(span, at=end)
        if self.cache is not None:
            self.cache.put(specs[i], record)
            if self.registry is not None:
                self._cache_puts.inc()
        self._emit(tel.RunFinished(
            sweep=sweep, index=i, total=len(specs),
            label=specs[i].describe(), time_s=record.time_s,
            energy_j=record.energy_j, watts=record.watts,
            wall_s=record.wall_s,
        ))
        if report is not None:
            self.validation_reports[i] = report
            self._emit(tel.RunValidated(
                sweep=sweep, index=i, total=len(specs),
                label=specs[i].describe(), batteries=report.batteries,
                checks=sum(report.checks.values()),
                violations=len(report.violations),
                unexpected=len(report.unexpected),
            ))
            for violation in report.violations[: self.max_violation_events]:
                self._emit(tel.InvariantViolated(
                    sweep=sweep, index=i, label=specs[i].describe(),
                    invariant=violation.invariant,
                    category=violation.category,
                    message=violation.message, time_s=violation.time_s,
                    expected=violation.expected,
                ))
        self._progress(sweep, records)

    def _fail(self, sweep: str, specs, i: int, attempts: int,
              error: BaseException, records: list) -> None:
        self._errors[i] = error
        self._emit(tel.RunFailed(
            sweep=sweep, index=i, total=len(specs),
            label=specs[i].describe(), attempts=attempts, error=repr(error),
        ))
        self._progress(sweep, records)

    # ------------------------------------------------------------------
    def _cancelled(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()

    def _run_serial(self, sweep: str, specs, pending: list[int],
                    records: list) -> None:
        total = len(specs)
        for i in pending:
            if self._cancelled():
                return
            self._emit(tel.RunStarted(
                sweep=sweep, index=i, total=total, label=specs[i].describe(),
            ))
            attempts = 0
            while True:
                attempts += 1
                try:
                    record, report = self._entry(specs[i])
                except Exception as exc:
                    if attempts <= self.retries:
                        self._emit(tel.RunRetried(
                            sweep=sweep, index=i, total=total,
                            label=specs[i].describe(), attempt=attempts,
                            error=repr(exc),
                        ))
                        continue
                    self._fail(sweep, specs, i, attempts, exc, records)
                    break
                self._finish(sweep, specs, i, record, records, report)
                break

    def _run_slots(self, sweep: str, specs, pending: list[int],
                   records: list) -> None:
        """Run ``pending`` on up to ``workers`` :class:`SpecWorker` slots.

        A slot's child holds one spec at a time, so its death costs that
        spec alone: it is requeued on a fresh child, at most
        ``max_requeues`` times.  A spec error retires the child too and
        goes through ``retries``.  If no child can be forked, the specs
        not yet handed out run serially in-process.
        """
        total = len(specs)
        slots = min(self.workers, len(pending))
        queue = collections.deque(pending)
        attempts = dict.fromkeys(pending, 0)  # 0: not started yet
        redeliveries = dict.fromkeys(pending, 0)
        busy: dict[SpecWorker, int] = {}
        idle: list[SpecWorker] = []

        def start(worker: SpecWorker, i: int) -> None:
            if not attempts[i]:
                attempts[i] = 1
                self._emit(tel.RunStarted(
                    sweep=sweep, index=i, total=total,
                    label=specs[i].describe(),
                ))
            try:
                worker.send(specs[i])
            except Exception as exc:
                lost(worker, i, exc)
                return
            busy[worker] = i

        def lost(worker: SpecWorker, i: int, exc: Exception) -> None:
            worker.close()
            label = specs[i].describe()
            if isinstance(exc, WorkerCrashed):
                redeliveries[i] += 1
                if redeliveries[i] > self.max_requeues:
                    self._fail(sweep, specs, i, attempts[i], WorkerCrashed(
                        f"{label} lost its worker {redeliveries[i]} times "
                        "(poison job?)"), records)
                    return
                self._emit(tel.RunRequeued(
                    sweep=sweep, index=i, total=total, label=label,
                    redelivery=redeliveries[i],
                ))
            elif attempts[i] <= self.retries:
                self._emit(tel.RunRetried(
                    sweep=sweep, index=i, total=total, label=label,
                    attempt=attempts[i], error=repr(exc),
                ))
                attempts[i] += 1
            else:
                self._fail(sweep, specs, i, attempts[i], exc, records)
                return
            queue.appendleft(i)

        try:
            while True:
                while len(busy) < slots and queue and not self._cancelled():
                    try:
                        worker = idle.pop() if idle else SpecWorker(self._entry)
                    except (OSError, ValueError) as exc:
                        self._emit(tel.Note(
                            f"no worker could be forked ({exc!r}); "
                            "running serially"))
                        self._run_serial(sweep, specs, list(queue), records)
                        queue.clear()
                        break
                    start(worker, queue.popleft())
                if not busy:
                    return
                for worker in wait(list(busy)):
                    i = busy.pop(worker)
                    try:
                        record, report = worker.receive()
                    except Exception as exc:
                        lost(worker, i, exc)
                        continue
                    # Keep the child busy while this process does the
                    # cache put and the telemetry.
                    if queue and not self._cancelled():
                        start(worker, queue.popleft())
                    else:
                        idle.append(worker)
                    self._finish(sweep, specs, i, record, records, report)
        finally:
            for worker in [*busy, *idle]:
                worker.close()

    # ------------------------------------------------------------------
    def run_one(self, spec: Spec, *, sweep: str = "run") -> MeasurementRecord:
        """Single-spec convenience wrapper over :meth:`run`."""
        return self.run([spec], sweep=sweep)[0]


def default_executor() -> BatchExecutor:
    """Serial, uncached, silent — the library-default harness."""
    return BatchExecutor(workers=0)
