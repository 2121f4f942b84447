"""Spec execution: serial, or fanned out over a process pool.

:func:`execute_spec` is the one code path that turns a spec of any kind
(:class:`~repro.harness.spec.Spec`) into its record — the serial loop, the
pool workers, the smoke test and the benchmarks all call it, which is
what makes "parallel is bit-identical to serial" a checkable property
rather than a hope.

:class:`BatchExecutor` adds the sweep machinery on top:

* result cache lookup before any work is scheduled;
* ``workers >= 2`` fans cache misses out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (the runs are
  deterministic, independent and CPU-bound — exactly the shape the GIL
  starves and process pools rescue); anything less runs serially
  in-process;
* results always return in input order, regardless of completion order;
* bounded retry of worker failures; a broken pool (a worker was
  OOM-killed mid-batch) is rebuilt and only the lost futures are
  requeued, falling back to a serial in-process drain only once the
  rebuild budget is exhausted;
* a cooperative cancellation hook (``run(..., cancel=event)``) so
  long sweeps can be abandoned between runs;
* every step narrated as typed telemetry events on the bus.

:func:`run_spec_subprocess` is the hard-isolation entry the experiment
service builds on: one spec in one fresh, killable child process, with
an enforced wall-clock deadline (:class:`~repro.errors.WorkerTimeout`)
and crash detection (:class:`~repro.errors.WorkerCrashed`).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
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
    """Pool/serial entry for normal sweeps (no validation report)."""
    return execute_spec(spec), None


def _validated_entry(spec: Spec) -> "tuple[MeasurementRecord, ValidationReport]":
    """Pool/serial entry for validate-mode sweeps.

    Top-level (picklable) so the process pool can ship it; the report is
    all scalars, so it crosses the process boundary like the record does.
    """
    from repro.validate.runner import validate_spec

    return validate_spec(spec)


def _pool_initializer(paths: list[str]) -> None:
    """Make ``repro`` importable in spawned workers (fork inherits it)."""
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)


def _make_pool(workers: int) -> ProcessPoolExecutor:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_pool_initializer,
        initargs=(list(sys.path),),
    )


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


def _subprocess_main(conn, paths: list[str], entry, spec) -> None:
    """Child-side wrapper: run ``entry(spec)`` and ship the outcome back."""
    _reset_inherited_signals()
    _pool_initializer(paths)
    try:
        outcome = ("ok", entry(spec))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        outcome = ("err", exc)
    try:
        conn.send(outcome)
    except Exception:
        # Unpicklable result/exception: degrade to a repr the parent can
        # still raise as a HarnessError.
        conn.send(("err", HarnessError(repr(outcome[1]))))
    finally:
        conn.close()


def _kill_process(proc, grace_s: float) -> None:
    proc.terminate()
    proc.join(grace_s)
    if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
        proc.kill()
        proc.join(grace_s)


def run_spec_subprocess(
    spec: Spec,
    *,
    timeout_s: Optional[float] = None,
    entry: Callable = _plain_entry,
    grace_s: float = 2.0,
    on_start: Optional[Callable[[int], None]] = None,
):
    """Execute one spec in a fresh, killable child process.

    Returns whatever ``entry`` returns (``(record, report)`` for the
    default entries).  ``on_start`` receives the child's pid as soon as
    it is running — chaos tests and the service's in-flight registry use
    it to target (or observe) the worker.

    Raises :class:`~repro.errors.WorkerTimeout` when the child exceeds
    ``timeout_s`` (it is terminated first, so a runaway run cannot leak),
    :class:`~repro.errors.WorkerCrashed` when the child dies without
    reporting a result (OOM kill, SIGKILL, hard crash), and re-raises
    the entry's own exception for ordinary spec failures.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_subprocess_main,
        args=(child_conn, list(sys.path), entry, spec),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    if on_start is not None:
        on_start(proc.pid)
    try:
        if not parent_conn.poll(timeout_s):
            _kill_process(proc, grace_s)
            raise WorkerTimeout(
                f"{spec.describe()} exceeded its {timeout_s:.3g}s deadline "
                f"(worker pid {proc.pid} killed)"
            )
        try:
            status, payload = parent_conn.recv()
        except (EOFError, OSError) as exc:
            proc.join(grace_s)
            raise WorkerCrashed(
                f"worker pid {proc.pid} died without a result for "
                f"{spec.describe()} (exitcode {proc.exitcode})"
            ) from exc
    finally:
        parent_conn.close()
        if proc.is_alive():
            _kill_process(proc, grace_s)
        else:
            proc.join(grace_s)
    if status == "err":
        raise payload
    return payload


class BatchExecutor:
    """Fans spec batches out to workers, cache-first.

    ``workers <= 1`` executes serially in-process (the deterministic
    reference path); ``workers >= 2`` uses a process pool.  ``cache``
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
        max_pool_rebuilds: int = 2,
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
        if max_pool_rebuilds < 0:
            raise HarnessError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds!r}")
        self.workers = max(0, int(workers))
        self.cache = cache
        self.bus = bus if bus is not None else tel.TelemetryBus()
        self.retries = retries
        #: Redelivery budget per spec when its worker process dies (the
        #: poison-job bound: a spec that keeps killing workers is failed
        #: rather than requeued forever).
        self.max_requeues = max_requeues
        #: How many times a broken process pool is rebuilt (with only the
        #: lost futures requeued) before degrading to a serial drain.
        self.max_pool_rebuilds = max_pool_rebuilds
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
        #: counter/histogram factories), ``tracer`` a ``SpanRecorder``.
        #: ``None`` (the default) keeps the hot path bare — the
        #: instrumented-vs-bare overhead benchmark compares against it.
        self.registry = registry
        self.tracer = tracer
        self._run_counter = None
        self._cache_lookups = None
        self._cache_puts = None
        self._rebuild_counter = None
        self._run_seconds = None
        if registry is not None:
            self._run_counter = registry.counter(
                "harness_runs_total",
                "Per-spec run outcomes, by status.", labels=("status",))
            for status in ("cached", "executed", "failed", "retried",
                           "requeued"):
                self._run_counter.inc(0.0, status=status)
            self._cache_lookups = registry.counter(
                "harness_cache_requests_total",
                "Result-cache lookups before scheduling work, by outcome.",
                labels=("result",))
            self._cache_puts = registry.counter(
                "harness_cache_puts_total",
                "Records written to the result cache after execution.")
            self._rebuild_counter = registry.counter(
                "harness_pool_rebuilds_total",
                "Broken process pools rebuilt mid-sweep.")
            self._run_seconds = registry.histogram(
                "harness_run_seconds",
                "Per-spec execution wall seconds (cache hits excluded).")

    def _obs_count(self, status: str) -> None:
        if self._run_counter is not None:
            self._run_counter.inc(status=status)

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
        total = len(specs)
        records: list[Optional[MeasurementRecord]] = [None] * total
        self._counts = {"cached": 0, "executed": 0, "failed": 0, "retried": 0}
        self._errors: dict[int, BaseException] = {}
        self._entry = _validated_entry if self.validate else _plain_entry
        self._cancel = cancel
        self.validation_reports = {}

        bus.emit(tel.SweepStarted(
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
            if self.cache is not None and self._run_counter is not None:
                self._cache_lookups.inc(
                    result="hit" if cached is not None else "miss")
            if cached is not None:
                records[i] = cached
                self._counts["cached"] += 1
                self._obs_count("cached")
                bus.emit(tel.RunCached(
                    sweep=sweep, index=i, total=total, label=spec.describe(),
                    time_s=cached.time_s, energy_j=cached.energy_j,
                    watts=cached.watts,
                ))
                self._progress(sweep, records)
            else:
                pending.append(i)

        if pending:
            if self.workers >= 2 and len(pending) >= 2:
                self._run_pool(sweep, specs, pending, records)
            else:
                self._run_serial(sweep, specs, pending, records)

        wall_s = time.perf_counter() - t_start
        if self._sweep_span is not None:
            self.tracer.finish(
                self._sweep_span, executed=self._counts["executed"],
                cached=self._counts["cached"],
                failed=self._counts["failed"])
        bus.emit(tel.SweepFinished(
            sweep=sweep, total=total,
            executed=self._counts["executed"],
            cached=self._counts["cached"],
            failed=self._counts["failed"],
            retried=self._counts["retried"],
            wall_s=wall_s,
            telemetry_s=bus.overhead_s - tel_before,
            events=bus.events_emitted,
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
        done = sum(1 for r in records if r is not None) + self._counts["failed"]
        self.bus.emit(tel.SweepProgress(sweep=sweep, done=done,
                                        total=len(records)))

    def _finish(self, sweep: str, specs, i: int, record: MeasurementRecord,
                records: list, report=None) -> None:
        records[i] = record
        self._counts["executed"] += 1
        self._obs_count("executed")
        if self._run_counter is not None:
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
            if self._run_counter is not None:
                self._cache_puts.inc()
        self.bus.emit(tel.RunFinished(
            sweep=sweep, index=i, total=len(specs),
            label=specs[i].describe(), time_s=record.time_s,
            energy_j=record.energy_j, watts=record.watts,
            wall_s=record.wall_s,
        ))
        if report is not None:
            self.validation_reports[i] = report
            self.bus.emit(tel.RunValidated(
                sweep=sweep, index=i, total=len(specs),
                label=specs[i].describe(), batteries=report.batteries,
                checks=sum(report.checks.values()),
                violations=len(report.violations),
                unexpected=len(report.unexpected),
            ))
            for violation in report.violations[: self.max_violation_events]:
                self.bus.emit(tel.InvariantViolated(
                    sweep=sweep, index=i, label=specs[i].describe(),
                    invariant=violation.invariant,
                    category=violation.category,
                    message=violation.message, time_s=violation.time_s,
                    expected=violation.expected,
                ))
        self._progress(sweep, records)

    def _fail(self, sweep: str, specs, i: int, attempts: int,
              error: BaseException, records: list) -> None:
        self._counts["failed"] += 1
        self._obs_count("failed")
        self._errors[i] = error
        self.bus.emit(tel.RunFailed(
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
            self.bus.emit(tel.RunStarted(
                sweep=sweep, index=i, total=total, label=specs[i].describe(),
            ))
            attempts = 0
            while True:
                attempts += 1
                try:
                    record, report = self._entry(specs[i])
                except Exception as exc:
                    if attempts <= self.retries:
                        self._counts["retried"] += 1
                        self._obs_count("retried")
                        self.bus.emit(tel.RunRetried(
                            sweep=sweep, index=i, total=total,
                            label=specs[i].describe(), attempt=attempts,
                            error=repr(exc),
                        ))
                        continue
                    self._fail(sweep, specs, i, attempts, exc, records)
                    break
                self._finish(sweep, specs, i, record, records, report)
                break

    def _run_pool(self, sweep: str, specs, pending: list[int],
                  records: list) -> None:
        total = len(specs)
        attempts: dict[int, int] = {}
        redeliveries: dict[int, int] = {}
        started: set[int] = set()
        queue: list[int] = list(pending)
        rebuilds = 0
        while queue and not self._cancelled():
            try:
                pool = _make_pool(min(self.workers, len(queue)))
            except (OSError, ValueError) as exc:
                self.bus.emit(tel.Note(
                    f"process pool unavailable ({exc!r}); running serially"))
                self._run_serial(sweep, specs, queue, records)
                return
            lost: list[int] = []
            with pool:
                futures: dict[Future, int] = {}
                broken = False
                for pos, i in enumerate(queue):
                    if i not in started:
                        started.add(i)
                        attempts[i] = 1
                        self.bus.emit(tel.RunStarted(
                            sweep=sweep, index=i, total=total,
                            label=specs[i].describe(),
                        ))
                    try:
                        futures[pool.submit(self._entry, specs[i])] = i
                    except (BrokenProcessPool, RuntimeError):
                        broken = True
                        lost.extend(queue[pos:])
                        break
                queue = []
                while futures and not broken and not self._cancelled():
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        i = futures.pop(future)
                        try:
                            record, report = future.result()
                        except BrokenProcessPool:
                            broken = True
                            lost.append(i)
                            continue
                        except Exception as exc:
                            if attempts[i] <= self.retries:
                                self._counts["retried"] += 1
                                self._obs_count("retried")
                                self.bus.emit(tel.RunRetried(
                                    sweep=sweep, index=i, total=total,
                                    label=specs[i].describe(),
                                    attempt=attempts[i], error=repr(exc),
                                ))
                                attempts[i] += 1
                                try:
                                    futures[pool.submit(self._entry,
                                                        specs[i])] = i
                                except (BrokenProcessPool, RuntimeError):
                                    broken = True
                                    lost.append(i)
                            else:
                                self._fail(sweep, specs, i, attempts[i], exc,
                                           records)
                            continue
                        self._finish(sweep, specs, i, record, records, report)
                # Whatever was still in flight when the pool broke (or
                # the sweep was cancelled) is lost with its workers.
                lost.extend(futures.values())
                futures.clear()
            if self._cancelled():
                return
            if not lost:
                return
            # Requeue only the lost futures, bounded per spec so a poison
            # job that keeps killing its worker cannot loop forever.
            for i in sorted(lost):
                redeliveries[i] = redeliveries.get(i, 0) + 1
                if redeliveries[i] > self.max_requeues:
                    self._fail(
                        sweep, specs, i, attempts[i],
                        WorkerCrashed(
                            f"{specs[i].describe()} lost its worker "
                            f"{redeliveries[i]} times (poison job?)"
                        ),
                        records,
                    )
                else:
                    queue.append(i)
                    self._obs_count("requeued")
                    self.bus.emit(tel.RunRequeued(
                        sweep=sweep, index=i, total=total,
                        label=specs[i].describe(),
                        redelivery=redeliveries[i],
                    ))
            if not queue:
                return
            rebuilds += 1
            if self._rebuild_counter is not None:
                self._rebuild_counter.inc()
            if rebuilds > self.max_pool_rebuilds:
                self.bus.emit(tel.Note(
                    f"process pool broke {rebuilds} times; finishing "
                    f"{len(queue)} runs serially in-process"))
                self._run_serial(sweep, specs, queue, records)
                return
            self.bus.emit(tel.Note(
                f"process pool broke; rebuilding (attempt {rebuilds}/"
                f"{self.max_pool_rebuilds}) and requeueing "
                f"{len(queue)} lost runs"))

    # ------------------------------------------------------------------
    def run_one(self, spec: Spec, *, sweep: str = "run") -> MeasurementRecord:
        """Single-spec convenience wrapper over :meth:`run`."""
        return self.run([spec], sweep=sweep)[0]


def default_executor() -> BatchExecutor:
    """Serial, uncached, silent — the library-default harness."""
    return BatchExecutor(workers=0)
