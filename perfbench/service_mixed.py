"""Workload ``service-mixed``: the experiment service under a seeded mix.

The service runs in its own process (the ``serve`` CLI, 2 workers, a
journal with ``--fsync``) over a store prepared during set-up.  This
process is the load generator, on two connections: a submitter and an
event stream.  Two phases:

* **open loop** — ``RATE`` requests per second, sent on schedule whatever
  the service does; each request is timed from its due time until its
  result is seen, and a shed or never-answered request counts as a miss;
* **closed loop** — ``OUTSTANDING`` fresh jobs kept in flight until
  ``CLOSED_JOBS`` have completed, which gives the service's capacity.

The open-loop mix has exact shares in every block of 10 requests:
fresh small specs (fork, execute, store write), duplicates of fresh
requests at least 10 requests earlier (dedup attach to a finished job)
and specs stored during set-up (read from the store).  The seed picks
the spec seeds and the order within each block, never the shares.
"""

from __future__ import annotations

import contextlib
import math
import queue
import re
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from common import (
    CHILD_TIMEOUT_S, SETUP_PROBES, BenchError, Context, CoreMeters, Outcome,
    ROOT, child_env, profiled, store_probe, timed,
)
from helpers import (
    DUP, FRESH, HIT, latencies, lateness, make_mix, median_or, nearest_rank,
    open_loop_schedule, spec_seeds, tail,
)

APP, SCALE = "nqueens", 0.05
RATE = 20.0
#: Share of ``--seconds`` spent in the open loop.
OPEN_SHARE = 0.5
DUP_FRAC, HIT_FRAC = 0.3, 0.1
CLOSED_JOBS = 200
OUTSTANDING = 4
#: Closed-loop completions per timed window (see ``_end_to_end``).
CLOSED_WINDOW = 20
#: Fresh specs re-executed under the profiler in a traced run.
PROFILED_REFS = 60
#: How long to wait for the last results of a phase.
DRAIN_S = 60.0

_LISTENING = re.compile(r"service listening on ([\d.]+):(\d+)")
_FINAL = ("JobFinished", "JobFailed", "JobDead", "JobCancelled")


def _spec(seed: int):
    from repro.harness import RunSpec

    return RunSpec(APP, scale=SCALE, seed=seed)


def warm() -> None:
    """Imports the generator needs before it can talk to the service."""
    from repro.harness import ResultCache  # noqa: F401
    from repro.harness.executor import execute_spec  # noqa: F401
    from repro.service.client import ServiceClient  # noqa: F401

    _spec(0)


class Service:
    """The ``serve`` CLI in a child process, started until it answers."""

    def __init__(self, store_root, journal) -> None:
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(store_root),
             "--journal", str(journal), "--fsync",
             "--quota-rate", "1000", "--quota-burst", "1000", "--quiet"],
            cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise BenchError(f"service did not start: {line!r}")
        self.port = int(match.group(2))
        with ServiceClient(port=self.port, name="setup") as client:
            client.ping()
        #: From starting the process until it answered ``ping``.
        self.ready_span = (start, time.perf_counter())

    def stop(self, client=None) -> None:
        """Drain and shut down through ``client``, else send SIGTERM."""
        from repro.errors import ServiceError

        asked = False
        if client is not None and self.proc.poll() is None:
            with contextlib.suppress(ServiceError, OSError):
                client.shutdown(drain=True)
                asked = True
        if not asked and self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdout, self.proc.stderr):
            if pipe is not None:
                pipe.close()


class EventLog:
    """Reads the event stream on its own thread, stamping arrival times."""

    def __init__(self, client) -> None:
        self.frames: list[tuple[float, dict]] = []
        self.final: dict[str, tuple[float, dict]] = {}
        self.completions: "queue.Queue[str]" = queue.Queue()
        self._cond = threading.Condition()
        self._client = client
        events = client.events()
        self._thread = threading.Thread(target=self._read, args=(events,),
                                        daemon=True)
        self._thread.start()

    def _read(self, events) -> None:
        for frame in events:
            now = time.perf_counter()
            with self._cond:
                self.frames.append((now, frame))
                if frame["event"] in _FINAL:
                    self.final.setdefault(frame["job"], (now, frame))
                    self.completions.put(frame["job"])
                self._cond.notify_all()

    def wait_final(self, jobs, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        with self._cond:
            while not all(job in self.final for job in jobs):
                left = deadline - time.perf_counter()
                if left <= 0:
                    return
                self._cond.wait(left)

    def close(self) -> None:
        """Wait for the stream to end (the service has stopped)."""
        self._thread.join(timeout=CHILD_TIMEOUT_S)
        self._client.close()


class Request:
    __slots__ = ("spec", "kind", "due", "sent", "answered", "response")

    def __init__(self, spec, kind: str, due: float) -> None:
        self.spec, self.kind, self.due = spec, kind, due
        self.sent = self.answered = 0.0
        self.response: dict = {}

    @property
    def job(self) -> Optional[str]:
        return self.response.get("job")

    @property
    def done_on_submit(self) -> bool:
        return self.response.get("state") == "done"


def _submit(ctx: Context, client, request: Request) -> None:
    with ctx.span("ServiceClient.submit", track="loadgen",
                  kind=request.kind):
        request.sent = time.perf_counter()
        request.response = client.submit(request.spec)
        request.answered = time.perf_counter()


def _seen(request: Request, log: EventLog) -> tuple[Optional[float], Any]:
    """When the request's result was seen, and the result itself."""
    response = request.response
    if not response.get("ok"):
        return None, None
    if request.done_on_submit:
        return request.answered, response.get("result")
    final = log.final.get(request.job)
    if final is None or final[1]["event"] != "JobFinished":
        return None, None
    return max(final[0], request.answered), final[1]


def _open_loop(ctx, client, log, mix, fresh, hits) -> list[Request]:
    dues = open_loop_schedule(RATE, len(mix) / RATE)
    start = time.perf_counter() + 0.05
    requests: list[Request] = []
    for (kind, ref), offset in zip(mix, dues):
        if kind == FRESH:
            spec = fresh[ref]
        elif kind == HIT:
            spec = hits[ref]
        else:
            spec = requests[ref].spec
        request = Request(spec, kind, start + offset)
        delay = request.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        _submit(ctx, client, request)
        requests.append(request)
    pending = [r.job for r in requests
               if r.response.get("ok") and not r.done_on_submit]
    log.wait_final(pending, DRAIN_S)
    return requests


def _closed_loop(ctx, client, log,
                 specs) -> tuple[list[Request], list[float]]:
    """Run the closed loop: its requests, and its start time followed by
    the time each completion was seen."""
    while not log.completions.empty():
        log.completions.get_nowait()
    requests: list[Request] = []
    outstanding: set[str] = set()
    start = time.perf_counter()
    stamps = [start]
    deadline = start + DRAIN_S + len(specs)
    upcoming = iter(specs)
    while True:
        while len(outstanding) < OUTSTANDING:
            spec = next(upcoming, None)
            if spec is None:
                break
            request = Request(spec, FRESH, time.perf_counter())
            _submit(ctx, client, request)
            requests.append(request)
            if request.response.get("ok") and not request.done_on_submit:
                outstanding.add(request.job)
        if not outstanding:
            break
        try:
            job = log.completions.get(
                timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            break
        if job in outstanding:
            stamps.append(time.perf_counter())
            outstanding.discard(job)
    return requests, stamps


def _references(ctx, out, specs) -> dict:
    """In-process records for every fresh spec (the correctness oracle)."""
    from repro.harness.executor import execute_spec

    refs, walls = {}, []
    with ctx.span("execute_spec*", track="harness", calls=len(specs)):
        for spec in specs:
            record, wall = timed(lambda: execute_spec(spec))
            refs[spec.digest] = record
            walls.append(wall)
    if ctx.trace:
        subset = specs[:PROFILED_REFS]
        again, wall, grouped = profiled(
            lambda: [execute_spec(spec) for spec in subset])
        out.check(again == [refs[s.digest] for s in subset],
                  "records under the profiler differ from untraced ones")
        out.add_self_time(grouped)
        out.layers["trace.overhead_x"] = wall / sum(walls[:len(subset)])
    return refs


def _same_result(summary: dict, record) -> bool:
    return (summary is not None
            and summary.get("time_s") == record.time_s
            and summary.get("energy_j") == record.energy_j
            and summary.get("watts") == record.watts)


def run(ctx: Context, out: Outcome) -> None:
    from repro.harness import ResultCache
    from repro.harness.executor import execute_spec
    from repro.service.client import ServiceClient

    requests_n = int(RATE * ctx.seconds * OPEN_SHARE)
    mix = make_mix(ctx.seed, requests_n, dup_frac=DUP_FRAC, hit_frac=HIT_FRAC)
    n_fresh = sum(1 for kind, _ in mix if kind == FRESH)
    n_hit = sum(1 for kind, _ in mix if kind == HIT)
    seeds = spec_seeds(ctx.seed, n_fresh + n_hit + CLOSED_JOBS)
    fresh = [_spec(s) for s in seeds[:n_fresh]]
    hits = [_spec(s) for s in seeds[n_fresh:n_fresh + n_hit]]
    closed = [_spec(s) for s in seeds[n_fresh + n_hit:]]

    store_root = ctx.fresh_dir("store")
    store = ResultCache(root=store_root)

    def preload():
        return [store.put(spec, execute_spec(spec)) for spec in hits]

    if ctx.trace:
        _, _, grouped = profiled(preload)
        out.add_self_time(grouped)
    else:
        preload()

    services = []
    setup_cores = CoreMeters(ctx.fresh_dir("setup-speed"))
    try:
        for i in range(SETUP_PROBES):
            if services:
                with ServiceClient(port=services[-1].port) as client:
                    services[-1].stop(client)
            services.append(Service(store_root, ctx.fresh_dir(f"journal{i}")
                                    / "journal.jsonl"))
    except BaseException:
        if services:
            services[-1].stop()
        raise
    finally:
        setup_cores.close()
    service = services[-1]

    submitter = log = cores = None
    try:
        setup_cores.read()
        spans = [s.ready_span for s in services]
        out.add("setup_wall_s", *(end - start for start, end in spans))
        out.add("setup_s", *(setup_cores.seconds(*span) for span in spans))
        submitter = ServiceClient(port=service.port, name="loadgen",
                                  timeout=DRAIN_S)
        log = EventLog(ServiceClient(port=service.port, name="events"))
        cores = CoreMeters(ctx.fresh_dir("speed"))
        opened = _open_loop(ctx, submitter, log, mix, fresh, hits)
        closed_requests, closed_stamps = _closed_loop(ctx, submitter, log,
                                                      closed)
        frame = submitter.metrics() if ctx.trace else None
    finally:
        if cores is not None:
            cores.close()
        service.stop(submitter)
        if submitter is not None:
            submitter.close()
        if log is not None:
            log.close()

    cores.read()
    refs = _references(ctx, out, fresh + closed)
    _check(out, store_root, opened + closed_requests, log, refs, hits)
    _end_to_end(cores, out, opened, closed_requests, closed_stamps, log)
    if ctx.trace:
        _per_layer(ctx, out, opened, closed_requests, log, frame, refs,
                   fresh + closed)


def _check(out, store_root, requests, log, refs, hits) -> None:
    from repro.harness import ResultCache

    store = ResultCache(root=store_root)
    for request in requests:
        seen, result = _seen(request, log)
        if seen is None:
            continue  # a miss, counted in failed_frac
        record = refs.get(request.spec.digest)
        if record is None:  # stored during set-up: compare with the store
            record = store.get(request.spec)
        out.check(_same_result(result, record),
                  f"service result for {request.spec.describe()} differs "
                  f"from the in-process record")
    counts = store.execution_counts()
    expected = set(refs) | {spec.digest for spec in hits}
    out.check(set(counts) == expected,
              f"store ledger names {len(counts)} digests, expected "
              f"{len(expected)}")
    twice = sorted(d for d, n in counts.items() if n != 1)
    out.check(not twice, f"{len(twice)} digests executed more than once")
    for digest, record in refs.items():
        stored = store.get(record.spec)
        out.check(stored == record,
                  f"stored record for {record.spec.describe()} differs "
                  f"from the in-process record")


def _end_to_end(cores, out, opened, closed_requests, closed_stamps,
                log) -> None:
    """Open-loop latencies and closed-loop time.

    Latencies stay in wall time: at this light load each is a chain of
    short steps (journal fsync, fork, IPC) that the speed probes do not
    follow, and over ten seeds their wall-time percentiles spread less
    than reference-speed ones.  The closed loop keeps both cores busy;
    its reference-speed time (``CoreMeters``, mean over the cores) is the
    median over windows of ``CLOSED_WINDOW`` completions, times the
    number of windows, so that a burst the probes could not follow moves
    one window only.
    """
    seen = [_seen(r, log)[0] for r in opened]
    lat_ms = [v * 1e3 for v in latencies([r.due for r in opened], seen)]
    edges = closed_stamps[::CLOSED_WINDOW]
    if len(edges) < 2:
        raise BenchError(f"the closed loop saw fewer than {CLOSED_WINDOW} "
                         f"completions")
    windows = [cores.seconds(a, b) for a, b in zip(edges, edges[1:])]
    closed_s = (closed_stamps[-1] - closed_stamps[0],
                statistics.median(windows) * (len(closed_stamps) - 1)
                / CLOSED_WINDOW)
    closed_ok = [r for r in closed_requests if _seen(r, log)[0] is not None]
    out.attempted += len(opened) + len(closed_requests)
    out.failed += sum(1 for s in seen if s is None)
    out.failed += len(closed_requests) - len(closed_ok)
    p50 = nearest_rank(lat_ms, 50)
    pct, p90 = tail(lat_ms, 90)
    if pct is None or not math.isfinite(p50) or not math.isfinite(p90):
        raise BenchError("open-loop latency percentile is a miss: too few "
                         "requests answered for a finite p50/p90")
    if pct != 90:
        out.notes.append(f"latency_p90_ms is p{pct} (fewer than 10 samples "
                         f"beyond p90 in {len(lat_ms)})")
    out.add("latency_p50_ms", *lat_ms)
    out.values["latency_p50_ms"] = p50
    out.add("latency_p90_ms", *lat_ms)
    out.values["latency_p90_ms"] = p90
    out.add("closed_loop_wall_s", closed_s[0])
    out.add("closed_loop_s", closed_s[1])
    out.add("capacity_jobs_per_s", len(closed_ok) / closed_s[1])
    late = lateness([r.due for r in opened], [r.sent for r in opened])
    out.layers["loadgen.late_ms.max"] = max(late) * 1e3
    out.notes.append(f"open loop: {len(opened)} requests at {RATE:g}/s, "
                     f"generator at most {max(late) * 1e3:.2f} ms late; "
                     f"closed loop: {len(closed_requests)} jobs, "
                     f"{OUTSTANDING} outstanding")


def _per_layer(ctx, out, opened, closed_requests, log, frame, refs,
               specs) -> None:
    from repro.obs import parse_prometheus

    layers = out.layers
    everything = opened + closed_requests
    layers["service.submit_rtt_ms.p50"] = statistics.median(
        r.answered - r.sent for r in everything) * 1e3
    accepted, started, finished = {}, {}, {}
    backlog = 0
    for stamp, event in log.frames:
        kind = event["event"]
        if kind == "JobAccepted":
            accepted.setdefault(event["job"], stamp)
            backlog = max(backlog, event["queue_depth"])
        elif kind == "JobStarted":
            started.setdefault(event["job"], stamp)
        elif kind == "JobFinished":
            finished.setdefault(event["job"], (stamp, event["wall_s"]))
    open_jobs = {r.job for r in opened if r.kind == FRESH}
    waits = [(started[j] - accepted[j]) * 1e3
             for j in open_jobs if j in started and j in accepted]
    workers = [(finished[j][0] - started[j]) * 1e3
               for j in finished if j in started]
    execs = [finished[j][1] * 1e3 for j in finished if j in started]
    layers["service.queue_wait_ms.p50"] = median_or(waits)
    layers["service.queue_wait_ms.p90"] = (
        nearest_rank(waits, 90) if waits else 0.0)
    layers["service.exec_ms.p50"] = median_or(execs)
    layers["service.worker_ms.p50"] = median_or(workers)
    layers["service.fork_overhead_ms.p50"] = median_or(
        w - e for w, e in zip(workers, execs))
    layers["service.backlog_max"] = float(backlog)
    n = len(opened)
    shed = sum(1 for r in opened if not r.response.get("ok"))
    attached = sum(1 for r in opened if r.response.get("attached"))
    hit = sum(1 for r in opened if r.response.get("ok")
              and not r.response.get("attached") and r.done_on_submit)
    layers["service.attached_frac"] = attached / n
    layers["service.cache_hit_frac"] = hit / n
    layers["service.executed_frac"] = (n - shed - attached - hit) / n
    layers["service.shed_frac"] = shed / n

    exposition = parse_prometheus(frame["prometheus"])
    layers["service.journal_append_ms.p50"] = exposition.value(
        "service_journal_append_seconds", quantile="0.5") * 1e3
    layers["service.frame_submit_ms.p50"] = exposition.value(
        "service_frame_seconds", op="submit", quantile="0.5") * 1e3
    store_probe(ctx, out, specs, [refs[s.digest] for s in specs])
