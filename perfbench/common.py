"""Shared plumbing of the benchmark: paths, run context, probes, profiler.

Everything that touches the clock, the disk or child processes lives
here or in the workload modules; the pure arithmetic is in
``helpers.py``.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import enum
import os
import platform
import pstats
import resource
import shutil
import subprocess
import sys
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from helpers import group_self_time, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, journals, the trace export) goes here.
OUT = HERE / "out"

#: Start-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Seconds a child process may take before the run gives up on it.
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``repro`` importable from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class BenchError(RuntimeError):
    """A run could not be carried out (not a correctness mismatch)."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: End-to-end metric (named as in the benchmark README) -> samples.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: End-to-end metric -> reported value, when not the sample median
    #: (a latency percentile, a rate).
    values: dict[str, float] = field(default_factory=dict)
    #: Per-layer metric -> value (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output-correctness mismatches; any entry fails the run.
    errors: list[str] = field(default_factory=list)
    #: Free-form notes printed with the summary (percentile used, ...).
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, *values: float) -> None:
        self.samples.setdefault(name, []).extend(float(v) for v in values)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def add_self_time(self, grouped: dict[str, float]) -> None:
        for layer, seconds in grouped.items():
            key = f"self_s.{layer}"
            self.layers[key] = self.layers.get(key, 0.0) + seconds


def _reference_work() -> int:
    """A fixed piece of pure-Python work (dict updates in a loop)."""
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return len(counts)


class SpeedMeter:
    """How fast the host runs Python at each moment of a run.

    On a shared host the same work takes up to ~2x longer for seconds at
    a time, and process CPU time slows with it.  An interval timer
    (``SIGALRM``) runs ``_reference_work`` on the main thread every
    ``INTERVAL_S`` (about 3% of the run), so each sample is taken on
    the core the benchmark is running on.  ``seconds`` turns a wall
    interval into reference-speed seconds — the time the interval's work
    would take with the reference work at its nominal ``REFERENCE_S`` —
    which follows the program rather than its neighbours.  Create it on
    the main thread.
    """

    INTERVAL_S = 0.02
    #: Nominal duration of ``_reference_work``, the unit of speed.
    REFERENCE_S = 250e-6
    #: Untimed calls first, so the interpreter has specialised the loop.
    WARM_CALLS = 200
    #: Set while ``profiled`` runs, so the profile holds no samples.
    paused = False

    def __init__(self) -> None:
        for _ in range(self.WARM_CALLS):
            _reference_work()
        self._times: list[float] = []
        self._durations: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def _sample(self, _signum, _frame) -> None:
        if SpeedMeter.paused:
            return
        _reference_work()  # untimed: a process woken from idle runs cold
        begin = time.perf_counter()
        _reference_work()
        now = time.perf_counter()
        self._durations.append(now - begin)
        self._times.append(now)

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval ``[start, end]``."""
        times = self._times[:]
        if not times:
            raise BenchError("the speed meter took no samples")
        return reference_seconds(times, self._durations[:len(times)], start,
                                 end, reference_s=self.REFERENCE_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class CoreMeters:
    """Host speed on every usable core, for work done in other processes.

    ``SpeedMeter`` samples the core this process runs on, which says
    little about the cores a worker pool or the service keeps busy.
    This starts one ``coreprobe.py`` per usable core; ``read`` collects
    their samples so far and ``seconds`` averages the reference-speed
    seconds of an interval over the cores.  As a context manager it
    stops the probes on exit and, without an error, reads them.
    """

    def __init__(self, directory: Path) -> None:
        self._paths: list[Path] = []
        self._procs: list[subprocess.Popen] = []
        self._samples: list[tuple[list[float], list[float]]] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                path = directory / f"speed-cpu{cpu}.txt"
                self._paths.append(path)
                self._procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "coreprobe.py"), str(cpu),
                     str(path)], cwd=str(ROOT)))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "CoreMeters":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close()
        if exc_type is None:
            self.read()

    def read(self) -> None:
        """Take in every sample written so far."""
        self._samples = []
        for path in self._paths:
            times, durations = [], []
            with contextlib.suppress(FileNotFoundError):
                for line in path.read_text().splitlines():
                    fields = line.split()
                    if len(fields) == 2:  # not a line cut short at the end
                        times.append(float(fields[0]))
                        durations.append(float(fields[1]))
            if times:
                self._samples.append((times, durations))
        if not self._samples:
            raise BenchError("the core speed probes took no samples")

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of ``[start, end]``, mean over cores."""
        return statistics.fmean(
            reference_seconds(times, durations, start, end,
                              reference_s=SpeedMeter.REFERENCE_S)
            for times, durations in self._samples)

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class Context:
    """One benchmark run: its arguments, scratch space and span recorder."""

    def __init__(self, *, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self._dirs = 0
        self.speed = SpeedMeter()
        self.tracer = None
        if trace:
            from repro.obs import SpanRecorder

            self.tracer = SpanRecorder(max_spans=200_000)

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{self._dirs:03d}-{name}"
        path.mkdir()
        return path

    @contextlib.contextmanager
    def span(self, name: str, *, track: str = "bench",
             **attrs: Any) -> Iterator[None]:
        """Benchmark-side span around one public call (traced runs only)."""
        if self.tracer is None:
            yield
            return
        with self.tracer.span(name, track=track, **attrs):
            yield

    def export_trace(self) -> Optional[Path]:
        if self.tracer is None:
            return None
        path = OUT / f"trace-{self.workload}.json"
        self.tracer.write_chrome_trace(path)
        return path

    def clocked(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """``fn()``: its result, wall seconds and reference-speed seconds."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        return result, end - start, self.speed.seconds(start, end)

    def close(self) -> None:
        self.speed.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def profiled(fn: Callable[[], Any]) -> tuple[Any, float, dict[str, float]]:
    """Run ``fn`` under cProfile: result, wall seconds, self time by layer."""
    profiler = cProfile.Profile()
    SpeedMeter.paused = True
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        SpeedMeter.paused = False
    wall = time.perf_counter() - start
    grouped = group_self_time(pstats.Stats(profiler).stats, str(SRC))
    return result, wall, grouped


def probe_setup(ctx: Context) -> tuple[list[float], list[float]]:
    """Start a fresh interpreter that prepares the workload, several times.

    Each sample runs from process start until the child reports it could
    serve the workload (imports, registry, fitted profiles) and exits.
    Returns the wall and the reference-speed seconds of every sample.
    """
    spans = []
    with CoreMeters(ctx.fresh_dir("setup-speed")) as cores:
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "ready.py"), ctx.workload],
                env=child_env(), cwd=str(ROOT), capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S)
            spans.append((start, time.perf_counter()))
            if proc.returncode != 0 or proc.stdout.strip() != "ready":
                raise BenchError(f"set-up probe for {ctx.workload} failed: "
                                 f"{proc.stderr.strip()}")
    return ([end - start for start, end in spans],
            [cores.seconds(start, end) for start, end in spans])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def provenance(seed: int) -> dict[str, Any]:
    """Host and code identity recorded with every result."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def canonical(obj: Any) -> Any:
    """JSON-able, exact rendering of a record for digesting.

    Dataclasses become ``[type, fields...]`` (``wall_s``, host time, is
    dropped), floats their exact hex form, enums their value, mappings
    sorted item lists — so the digest is independent of the numpy scalar
    type a field happens to hold and of dict insertion order.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__] + [
            [f.name, canonical(getattr(obj, f.name))]
            for f in dataclasses.fields(obj) if f.name != "wall_s"]
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float) or hasattr(obj, "__float__"):
        return float(obj).hex()
    if isinstance(obj, dict):
        return sorted(([canonical(k), canonical(v)] for k, v in obj.items()),
                      key=repr)
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


#: Repeats of ``ResultCache.info`` per store probe (report the median).
INFO_REPEATS = 5


def store_probe(ctx: Context, out: Outcome, specs, records) -> None:
    """Direct, timed store calls on a fresh store filled with ``records``.

    Fills it with one ``put`` per record, reads each back (``get`` hit),
    looks up as many specs that were never stored (``get`` miss), and
    asks for ``info``; every read must return what was written.
    """
    from repro.harness import ResultCache

    store = ResultCache(root=ctx.fresh_dir("store-probe"))
    stored = {spec.digest for spec in specs}
    misses = [dataclasses.replace(spec, seed=spec.seed + 7919)
              for spec in specs]
    misses = [spec for spec in misses if spec.digest not in stored]
    puts, gets, miss_gets, infos = [], [], [], []
    with ctx.span("ResultCache.put*", track="store", calls=len(specs)):
        for spec, record in zip(specs, records):
            puts.append(timed(lambda: store.put(spec, record))[1])
    with ctx.span("ResultCache.get*", track="store", calls=len(specs)):
        for spec, record in zip(specs, records):
            got, wall = timed(lambda: store.get(spec))
            gets.append(wall)
            out.check(got == record, f"store returned another record for "
                                     f"{spec.describe()}")
    with ctx.span("ResultCache.get-miss*", track="store", calls=len(misses)):
        for spec in misses:
            got, wall = timed(lambda: store.get(spec))
            miss_gets.append(wall)
            out.check(got is None, f"store hit a never-stored spec "
                                   f"{spec.describe()}")
    with ctx.span("ResultCache.info*", track="store", calls=INFO_REPEATS):
        for _ in range(INFO_REPEATS):
            info, wall = timed(store.info)
            infos.append(wall)
    out.attempted += len(puts) + len(gets) + len(miss_gets) + len(infos)
    layers = out.layers
    layers["store.put_ms.p50"] = statistics.median(puts) * 1e3
    layers["store.get_ms.p50"] = statistics.median(gets) * 1e3
    layers["store.get_miss_ms.p50"] = (
        statistics.median(miss_gets) * 1e3 if miss_gets else 0.0)
    layers["store.info_ms"] = statistics.median(infos) * 1e3
