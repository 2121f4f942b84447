"""Open-loop workload traces: deterministic, seeded job arrival streams.

A trace is a sequence of :class:`Job` records — *who* arrives (an app
from the registry, a thread demand, a work scale) and *when* (an arrival
timestamp) — replayed open-loop: arrivals do not react to queueing delay
or rejections, which is what makes saturation and shedding observable at
all (a closed loop would self-throttle).

Traces are *streamed*: :func:`iter_trace` is a lazy generator that draws
each job's randomness (interarrival gap, app, threads, scale) as the job
is yielded, so a million-job trace costs a handful of live objects, not
a million.  :func:`generate_trace` is simply the materialized form —
``tuple(iter_trace(...))`` — and the two are bit-identical by
construction (pinned by test).  ``start`` lets a resumed run re-enter
the stream at job *k* by re-drawing (and discarding) the first *k* jobs'
randomness: the generator is deterministic, so skipping is exact.

Three stochastic arrival profiles plus a deterministic control:

* ``steady``   — fixed interarrival gap (1/rate), the control profile;
* ``poisson``  — exponential interarrival times at a constant rate;
* ``bursty``   — on/off modulated Poisson: short bursts of tightly
  packed arrivals separated by compensating lulls (same long-run rate);
* ``diurnal``  — inhomogeneous Poisson with a sinusoidal rate, sampled
  by Lewis–Shedler thinning (a day-curve compressed onto the trace).

Determinism: every draw comes from one named
:class:`~repro.sim.rng.RngStreams` stream keyed by ``(seed, profile)``,
so the same ``(profile, jobs, rate, seed, apps)`` tuple always yields a
bit-identical stream regardless of what else consumed randomness.  The
stream belongs to one :func:`iter_trace` call, and its draws are taken
through :class:`_TraceDraws`, which replays numpy's own rules on the
generator's raw 64-bit PCG64 output: a uniform is numpy's
``next_double`` and an index in ``[0, n)`` is numpy's bounded Lemire
rule over buffered 32-bit halves, so each is bit for bit what
``Generator.random()`` and ``Generator.integers(0, n)`` would return,
at a fraction of their call cost.  Every integer draw on the stream —
the app, the thread demand and the burst length — must go through the
helper: it keeps its own spare 32-bit half, so one ``integers`` call on
the generator itself would split the two buffers and shift every later
draw.  ``exponential`` stays a numpy call (its ziggurat tables are
numpy's own); it reads whole 64-bit outputs and leaves the spare half
alone, as in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigError
from repro.sim.rng import RngStreams

#: Default job mix: fast registry apps with distinct power/scaling
#: shapes, so placement decisions actually face heterogeneous demand.
DEFAULT_JOB_APPS: tuple[str, ...] = (
    "mergesort",
    "nqueens",
    "reduction",
    "fibonacci",
    "bots-sort",
)

#: Thread demands jobs draw from (uniformly).
THREAD_CHOICES: tuple[int, ...] = (4, 8, 16)

#: Burst shape for the ``bursty`` profile: arrivals inside a burst come
#: this many times faster than the long-run rate; lulls compensate.
_BURST_SPEEDUP = 6.0
_BURST_MIN_JOBS = 2
_BURST_MAX_JOBS = 6

#: Rate swing of the ``diurnal`` profile: lambda(t) in
#: ``rate * (1 +/- _DIURNAL_AMPLITUDE)``.
_DIURNAL_AMPLITUDE = 0.8


@dataclass(frozen=True)
class Job:
    """One trace entry: a unit of work and its arrival time."""

    index: int
    submit_s: float
    app: str
    threads: int
    scale: float
    compiler: str = "gcc"
    optlevel: str = "O2"

    def describe(self) -> str:
        return f"j{self.index}:{self.app} t{self.threads} @{self.submit_s:.2f}s"


class _TraceDraws:
    """The trace stream's uniforms and indices, from raw PCG64 output.

    ``index(n)`` replays numpy's ``buffered_bounded_lemire_uint32`` over
    ``next_uint32`` (one raw output gives two 32-bit halves, low half
    first), so it equals ``Generator.integers(0, n)`` for ``1 <= n <
    2**32``; ``random()`` is numpy's ``next_double``.  ``raw`` defaults
    to the generator's ``random_raw`` and may be any callable returning
    64-bit integers, so a test can script the rejection branch, which no
    seed reaches for the trace's small bounds (~2**-32 per draw).
    """

    __slots__ = ("exponential", "_raw", "_half")

    def __init__(self, rng, raw=None) -> None:
        self.exponential = rng.exponential
        self._raw = rng.bit_generator.random_raw if raw is None else raw
        #: The buffered high half of the last raw output, -1 when spent.
        self._half = -1

    def _u32(self) -> int:
        half = self._half
        if half < 0:
            raw = self._raw()
            self._half = raw >> 32
            return raw & 0xFFFFFFFF
        self._half = -1
        return half

    def index(self, n: int) -> int:
        """A uniform index in ``[0, n)``; ``n == 1`` draws nothing."""
        if n == 1:
            return 0
        m = self._u32() * n
        if m & 0xFFFFFFFF < n:
            # Lemire's rejection: drop the products whose low word falls
            # below 2**32 mod n, so every index keeps equal weight.
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._u32() * n
        return m >> 32

    def random(self) -> float:
        """A uniform float in ``[0, 1)``, 53 random bits."""
        return (self._raw() >> 11) * 2.0**-53


#: Profile name -> one-line description (the registry the CLI exposes).
TRACE_PROFILES: dict[str, str] = {
    "steady": "fixed interarrival gap (deterministic control)",
    "poisson": "constant-rate Poisson arrivals",
    "bursty": "on/off modulated Poisson: packed bursts, compensating lulls",
    "diurnal": "sinusoidal-rate Poisson (day curve, by thinning)",
}


def _iter_gaps(
    profile: str, jobs: int, rate: float, draws: _TraceDraws
) -> Iterator[float]:
    """Lazy gap sequence (seconds) between consecutive arrivals.

    Each profile is a stateful generator that draws exactly the
    randomness for the next gap when asked for it — no gap list is ever
    materialized, which is what keeps :func:`iter_trace` O(1) in memory.
    """
    exponential = draws.exponential
    if profile == "steady":
        gap = 1.0 / rate
        for _ in range(jobs):
            yield gap
        return
    if profile == "poisson":
        mean = 1.0 / rate
        for _ in range(jobs):
            yield float(exponential(mean))
        return
    if profile == "bursty":
        yielded = 0
        while yielded < jobs:
            burst = _BURST_MIN_JOBS + draws.index(
                _BURST_MAX_JOBS - _BURST_MIN_JOBS + 1)
            for _ in range(burst):
                if yielded == jobs:
                    return
                yield float(exponential(1.0 / (rate * _BURST_SPEEDUP)))
                yielded += 1
            if yielded == jobs:
                return
            # The lull repays the burst's rate debt so the long-run rate
            # stays ~`rate` and profiles compare at equal offered load.
            yield float(exponential(burst / rate))
            yielded += 1
        return
    if profile == "diurnal":
        # Lewis-Shedler thinning against the peak rate; one full "day"
        # spans the nominal trace length so the sweep sees both slopes.
        day_s = max(jobs / rate, 1e-9)
        peak = rate * (1.0 + _DIURNAL_AMPLITUDE)
        uniform = draws.random
        t = 0.0
        last = 0.0
        yielded = 0
        while yielded < jobs:
            t += float(exponential(1.0 / peak))
            lam = rate * (
                1.0 + _DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * t / day_s)
            )
            if uniform() * peak <= lam:
                yield t - last
                last = t
                yielded += 1
        return
    raise ConfigError(
        f"unknown trace profile {profile!r}; one of {', '.join(sorted(TRACE_PROFILES))}"
    )


def _validate_trace_args(
    profile: str,
    jobs: int,
    rate_jobs_per_s: float,
    apps: Sequence[str],
    scale: float,
) -> None:
    # Inverted comparisons, so NaN fails them: a NaN rate would give NaN
    # arrival times (and diurnal thinning would never accept a job), and
    # a NaN or infinite scale would become every job's scale.
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
    if not rate_jobs_per_s > 0:
        raise ConfigError(f"rate must be positive, got {rate_jobs_per_s!r}")
    if not 0 < scale < math.inf:
        raise ConfigError(f"scale must be finite and positive, got {scale!r}")
    if not apps:
        raise ConfigError("the job app pool must not be empty")
    if profile not in TRACE_PROFILES:
        raise ConfigError(
            f"unknown trace profile {profile!r}; "
            f"one of {', '.join(sorted(TRACE_PROFILES))}"
        )


def iter_trace(
    profile: str,
    *,
    jobs: int,
    rate_jobs_per_s: float = 1.0,
    seed: int = 0,
    apps: Sequence[str] = DEFAULT_JOB_APPS,
    scale: float = 0.5,
    compiler: str = "gcc",
    optlevel: str = "O2",
    start: int = 0,
) -> Iterator[Job]:
    """Yield the deterministic open-loop arrival trace lazily.

    ``scale`` is the nominal per-job work scale; each job perturbs it by
    a seeded ±25% draw so service times are heterogeneous but exactly
    reproducible.  All randomness for job *i* (gap, app, threads, scale)
    is drawn when job *i* is produced, in that fixed order, so the
    stream position after *i* jobs is a pure function of ``(profile,
    seed, i)`` — which is what makes ``start`` an exact re-entry point:
    the first ``start`` jobs are re-drawn and discarded, never stored.
    """
    _validate_trace_args(profile, jobs, rate_jobs_per_s, apps, scale)
    if not 0 <= start <= jobs:
        raise ConfigError(
            f"start must be in [0, jobs={jobs}], got {start!r}"
        )
    apps = tuple(apps)
    n_apps = len(apps)
    n_threads = len(THREAD_CHOICES)
    draws = _TraceDraws(RngStreams(seed).stream(f"sched-trace/{profile}"))
    index = draws.index
    uniform = draws.random
    gaps = _iter_gaps(profile, jobs, rate_jobs_per_s, draws)
    new_job = object.__new__
    t = 0.0
    for i in range(jobs):
        t += next(gaps)
        app = apps[index(n_apps)]
        threads = THREAD_CHOICES[index(n_threads)]
        # uniform(0.75, 1.25) draws 0.75 + 0.5 * random(), bit for bit.
        job_scale = scale * (0.75 + 0.5 * uniform())
        if i < start:
            continue
        # The arguments were checked above and ``Job`` has no
        # ``__post_init__``, so filling the frozen instance's dict
        # directly skips only the per-field ``object.__setattr__``.
        job = new_job(Job)
        job.__dict__.update(
            index=i,
            submit_s=t,
            app=app,
            threads=threads,
            scale=job_scale,
            compiler=compiler,
            optlevel=optlevel,
        )
        yield job


def generate_trace(
    profile: str,
    *,
    jobs: int,
    rate_jobs_per_s: float = 1.0,
    seed: int = 0,
    apps: Sequence[str] = DEFAULT_JOB_APPS,
    scale: float = 0.5,
    compiler: str = "gcc",
    optlevel: str = "O2",
) -> tuple[Job, ...]:
    """The materialized trace: ``tuple(iter_trace(...))``, bit-identical."""
    return tuple(
        iter_trace(
            profile,
            jobs=jobs,
            rate_jobs_per_s=rate_jobs_per_s,
            seed=seed,
            apps=apps,
            scale=scale,
            compiler=compiler,
            optlevel=optlevel,
        )
    )


def offered_load_summary(trace: Sequence[Job]) -> str:
    """One-line trace description (for result headers and logs)."""
    if not trace:
        return "empty trace"
    span = trace[-1].submit_s - trace[0].submit_s
    rate = (len(trace) - 1) / span if span > 0 else float("inf")
    apps = sorted({job.app for job in trace})
    return (
        f"{len(trace)} jobs over {trace[-1].submit_s:.1f} s "
        f"(~{rate:.2f} jobs/s) from {len(apps)} apps"
    )
