"""Pure helpers of the benchmark: statistics, profile grouping, load shapes.

Nothing here imports ``repro`` or touches the clock, the disk or the
network, so every function is unit-tested in ``test_helpers.py``.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from typing import Iterable, Mapping, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; with fewer, the highest percentile that has them.
TAIL_BEYOND = 10
#: Requests per mix block; every block holds the same share of each kind.
MIX_BLOCK = 10
#: A duplicate repeats a fresh request at least this many requests back.
DUP_BACK = 10


# ----------------------------------------------------------------------
# percentiles and summaries
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def tail_pct(n: int, wanted: float) -> Optional[int]:
    """Highest whole percentile <= ``wanted`` with ``TAIL_BEYOND`` above.

    With nearest rank, percentile ``p`` of ``n`` samples is the value of
    rank ``ceil(p*n/100)``, so ``n - rank`` samples lie beyond it.  Returns
    ``None`` when ``n <= TAIL_BEYOND`` (no percentile has that many above).
    """
    if n <= TAIL_BEYOND:
        return None
    best = math.floor(100.0 * (n - TAIL_BEYOND) / n)
    pct = min(int(wanted), best)
    while pct > 0 and n - math.ceil(pct * n / 100.0) < TAIL_BEYOND:
        pct -= 1
    return pct if pct > 0 else None


def tail(values: Sequence[float],
         wanted: float) -> tuple[Optional[int], Optional[float]]:
    """``(percentile used, value)`` under the ``TAIL_BEYOND`` rule."""
    pct = tail_pct(len(values), wanted)
    if pct is None:
        return None, None
    return pct, nearest_rank(values, pct)


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def reference_seconds(times: Sequence[float], durations: Sequence[float],
                      start: float, end: float, *, reference_s: float,
                      smooth: int = 5) -> float:
    """Wall interval ``[start, end]`` in reference-speed seconds.

    ``durations[i]`` is how long a fixed piece of reference work took,
    finishing at ``times[i]`` (ascending).  The host's slowdown at sample
    ``i`` is the median of the ``smooth`` durations centred on it over
    ``reference_s``, the reference work's nominal duration; each stretch
    of wall time between samples is divided by the slowdown measured at
    its end (past the last sample, by the last one's).
    """
    n = min(len(times), len(durations))
    if n == 0:
        raise ValueError("no speed samples")
    if end < start:
        raise ValueError("interval ends before it starts")
    half = smooth // 2

    def speed(i: int) -> float:
        window = durations[max(0, i - half):min(n, i + half + 1)]
        return reference_s / statistics.median(window)

    lo = bisect.bisect_left(times, start, 0, n)
    hi = bisect.bisect_left(times, end, 0, n)
    total, at = 0.0, start
    for i in range(lo, min(hi + 1, n)):
        edge = min(times[i], end)
        total += (edge - at) * speed(i)
        at = edge
    if at < end:
        total += (end - at) * speed(n - 1)
    return total


# ----------------------------------------------------------------------
# profiler self time, grouped by layer
# ----------------------------------------------------------------------
#: Module prefix -> layer, most specific first.  Anything under ``repro``
#: not listed, and the benchmark's own frames, fall into ``other``.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.sched.analytic", "sched.analytic"),
    ("repro.sched.workload", "sched.workload"),
    ("repro.sched.policy", "sched.policy"),
    ("repro.sched.queue", "sched.queue"),
    ("repro.sched.sketch", "sched.sketch"),
    ("repro.sched.cluster", "cluster"),
    ("repro.sched", "sched"),
    ("repro.cluster", "cluster"),
    ("repro.cosched.predictor", "cosched.predictor"),
    ("repro.cosched", "cosched"),
    ("repro.harness.cache", "store"),
    ("repro.harness.storeindex", "store"),
    ("repro.harness", "harness"),
    ("repro.experiments.runner", "runner"),
    ("repro.sim", "sim"),
    ("repro.hw", "hw"),
    ("repro.qthreads", "qthreads"),
    ("repro.openmp", "qthreads"),
    ("repro.rcr", "rcr"),
    ("repro.throttle", "throttle"),
    ("repro.metering", "metering"),
    ("repro.measure", "measure"),
    ("repro.apps", "apps"),
    ("repro.kernels", "apps"),
    ("repro.calibration", "calibration"),
    ("repro.service", "service"),
    ("repro.obs", "obs"),
)


def layer_of(module: Optional[str]) -> str:
    """Layer of a dotted module name (``other`` when none matches)."""
    if module:
        for prefix, layer in LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def module_of(filename: str, src_root: str) -> Optional[str]:
    """Dotted module name of a ``repro`` source file, else ``None``.

    ``src_root`` is the directory holding the ``repro`` package; paths use
    ``/`` separators as on the platforms this benchmark runs on.
    """
    prefix = src_root.rstrip("/") + "/repro/"
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    rel = filename[len(src_root.rstrip("/")) + 1:-len(".py")]
    parts = rel.split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def group_self_time(stats: Mapping, src_root: str) -> dict[str, float]:
    """Sum profiler self time by layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``(file, line, name) ->
    (cc, nc, tt, ct, callers)`` with ``callers`` mapping each caller to
    its ``(cc, nc, tt, ct)`` share.  A ``repro`` function's self time
    goes to its own layer.  Self time of anything else — builtins, numpy,
    the standard library — goes to the layers of its direct callers, in
    proportion to each caller's share, so ``hw`` owns the numpy calls it
    makes; a caller outside ``repro`` hands its share to ``other``.
    """
    def own_layer(func) -> Optional[str]:
        module = module_of(func[0], src_root)
        return layer_of(module) if module is not None else None

    totals: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + tt
            continue
        shares = {caller: share[2] for caller, share in callers.items()}
        attributed = sum(shares.values())
        if attributed <= 0.0:
            totals["other"] = totals.get("other", 0.0) + tt
            continue
        for caller, share in shares.items():
            caller_layer = own_layer(caller) or "other"
            totals[caller_layer] = (totals.get(caller_layer, 0.0)
                                    + tt * share / attributed)
    return totals


# ----------------------------------------------------------------------
# open-loop load
# ----------------------------------------------------------------------
def open_loop_schedule(rate_per_s: float, duration_s: float) -> list[float]:
    """Due offsets (seconds from phase start) of a fixed-rate open loop."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    count = int(math.floor(rate_per_s * duration_s + 1e-9))
    return [i / rate_per_s for i in range(count)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late each request was sent (0 when on time or early)."""
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def latencies(due: Sequence[float],
              seen: Sequence[Optional[float]]) -> list[float]:
    """Due-time latencies; a request never seen (shed, refused, failed)
    counts as infinitely late, so it misses every latency limit."""
    if len(due) != len(seen):
        raise ValueError("due and seen differ in length")
    return [math.inf if s is None else s - d for d, s in zip(due, seen)]


# ----------------------------------------------------------------------
# request mix
# ----------------------------------------------------------------------
FRESH, DUP, HIT = "fresh", "dup", "hit"


def make_mix(seed: int, requests: int, *, dup_frac: float,
             hit_frac: float) -> list[tuple[str, int]]:
    """Seeded request mix with exact kind counts in every block.

    Returns ``(kind, ref)`` per request: ``("fresh", k)`` is the k-th
    fresh spec, ``("dup", i)`` repeats the earlier fresh request ``i``
    and ``("hit", k)`` is the k-th spec stored during set-up (each used
    once, so every hit is read from the store rather than attached to an
    earlier job).

    Every ``MIX_BLOCK`` consecutive requests hold the same number of
    each kind, in a seeded order, so no seed offers a longer burst of
    fresh work than another.  A duplicate repeats a fresh request at
    least ``DUP_BACK`` requests earlier when there is one (so it attaches
    to a finished job), else the first request.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    if dup_frac < 0 or hit_frac < 0 or dup_frac + hit_frac >= 1:
        raise ValueError("fractions must be >= 0 and leave room for fresh")
    n_dup = round(MIX_BLOCK * dup_frac)
    n_hit = round(MIX_BLOCK * hit_frac)
    pattern = [DUP] * n_dup + [HIT] * n_hit
    pattern += [FRESH] * (MIX_BLOCK - len(pattern))
    rng = random.Random(seed)
    kinds: list[str] = []
    while len(kinds) < requests:
        chunk = list(pattern)
        rng.shuffle(chunk)
        kinds.extend(chunk)
    del kinds[requests:]
    if FRESH in kinds:
        first_fresh = kinds.index(FRESH)
        kinds[0], kinds[first_fresh] = kinds[first_fresh], kinds[0]
    mix: list[tuple[str, int]] = []
    fresh_positions: list[int] = []
    counters = {FRESH: 0, HIT: 0}
    for i, kind in enumerate(kinds):
        if kind == DUP:
            old = [p for p in fresh_positions if p <= i - DUP_BACK]
            mix.append((DUP, rng.choice(old) if old else 0))
            continue
        mix.append((kind, counters[kind]))
        counters[kind] += 1
        if kind == FRESH:
            fresh_positions.append(i)
    return mix


def spec_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct spec seeds drawn from the benchmark seed."""
    rng = random.Random(f"spec-seeds/{seed}")
    return rng.sample(range(1 << 30), count)


def median_or(values: Iterable[float], default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default
