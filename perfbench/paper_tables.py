"""Workload ``paper-tables``: the 40 paper cells, swept cold twice.

Table I (14 applications x GCC/ICC, 28 cells) plus Tables IV-VII (4
MAESTRO applications x {dynamic16, fixed16, fixed12}, 12 cells, 4 of
them throttled).  Each iteration sweeps them serially (``workers=1``,
the CLI default) into a fresh store, then on 2 workers into another
fresh store, then re-reads them once from the serial sweep's store.
The seed only orders the cells, so every seed does the same work.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time

from common import (
    Context, CoreMeters, Outcome, canonical, profiled, store_probe,
)

#: Canonical digest of the 40 records (sorted by spec digest), pinned
#: from the code this benchmark was written against.  A change that
#: moves any simulated number fails every run until it is re-pinned.
PINNED_DIGEST = (
    "47bdaeb83ba2c7f2601de6bbd898dd3f3f492263d9753fc78eff0f2aa40e85d0")


def cells() -> list:
    from repro.calibration.paper_data import THROTTLE_TABLES
    from repro.experiments.table1 import table1_specs
    from repro.experiments.throttling import throttle_specs

    return table1_specs() + [
        spec for app in THROTTLE_TABLES for spec in throttle_specs(app)]


def specs_for(seed: int) -> list:
    specs = cells()
    random.Random(f"paper-tables/{seed}").shuffle(specs)
    return specs


def warm() -> None:
    """Set-up a reproducer pays once per process: fit every cell's profile."""
    from repro.apps.registry import app_profile
    from repro.harness import BatchExecutor, ResultCache  # noqa: F401

    for spec in cells():
        app_profile(spec.app, spec.compiler, spec.optlevel)


def records_digest(records) -> str:
    ordered = sorted(records, key=lambda rec: rec.spec.digest)
    blob = json.dumps([canonical(rec) for rec in ordered],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _sweep(ctx: Context, specs, workers: int, store_root, name: str):
    from repro.harness import BatchExecutor, ResultCache

    executor = BatchExecutor(workers=workers,
                             cache=ResultCache(root=store_root))
    with ctx.span(f"BatchExecutor.run:{name}", track="harness",
                  workers=workers, specs=len(specs)):
        return ctx.clocked(lambda: executor.run(specs, sweep=name))


def _iteration(ctx: Context, out: Outcome, specs) -> tuple:
    serial_root = ctx.fresh_dir("serial")
    serial, serial_s, serial_ref = _sweep(ctx, specs, 1, serial_root,
                                          "serial")
    # The 2-worker sweep runs in the pool's processes: take the host
    # speed on every core rather than on this process's.
    with CoreMeters(ctx.fresh_dir("speed")) as cores:
        start = time.perf_counter()
        parallel, parallel_s, _ = _sweep(ctx, specs, 2,
                                         ctx.fresh_dir("parallel"), "parallel")
        end = time.perf_counter()
    parallel_ref = cores.seconds(start, end)
    cached, _, _ = _sweep(ctx, specs, 1, serial_root, "cached")
    out.check(cached == serial, "store-served records differ from serial")
    out.attempted += len(specs) * 3
    out.check(parallel == serial,
              "2-worker records are not bit-identical to serial records")
    digest = records_digest(serial)
    out.check(digest == PINNED_DIGEST,
              f"paper-tables digest {digest} != pinned {PINNED_DIGEST}")
    out.add("sweep_serial_wall_s", serial_s)
    out.add("sweep_serial_s", serial_ref)
    out.add("sweep_parallel_wall_s", parallel_s)
    out.add("sweep_parallel_s", parallel_ref)
    return serial, serial_s, parallel, parallel_s


def run(ctx: Context, out: Outcome) -> None:
    specs = specs_for(ctx.seed)
    deadline = time.perf_counter() + ctx.seconds
    while True:
        start = time.perf_counter()
        serial, serial_s, parallel, parallel_s = _iteration(ctx, out, specs)
        elapsed = time.perf_counter() - start
        if ctx.trace or time.perf_counter() + elapsed > deadline:
            break
    if ctx.trace:
        _per_layer(ctx, out, specs, serial, serial_s, parallel, parallel_s)


def _per_layer(ctx, out, specs, serial, serial_s, parallel, parallel_s):
    layers = out.layers
    serial_walls = [rec.wall_s for rec in serial]
    parallel_walls = [rec.wall_s for rec in parallel]
    layers["runner.spec_ms.p50"] = statistics.median(serial_walls) * 1e3
    layers["sim.sim_s_per_wall_s"] = (
        sum(rec.run.elapsed_s for rec in serial) / serial_s)
    layers["qthreads.tasks_spawned"] = sum(r.run.tasks_spawned for r in serial)
    layers["qthreads.steals"] = sum(r.run.steals for r in serial)
    layers["rcr.daemon_ticks"] = sum(r.daemon_ticks for r in serial)
    layers["throttle.activations"] = sum(
        r.run.throttle_activations for r in serial)
    layers["harness.pool_busy_frac"] = sum(parallel_walls) / (2 * parallel_s)
    layers["harness.parallel_inflation"] = (
        sum(parallel_walls) / sum(serial_walls))

    profiled_records, profiled_s, grouped = profiled(
        lambda: _sweep(ctx, specs, 1, ctx.fresh_dir("profiled"),
                       "profiled")[0])
    out.check(profiled_records == serial,
              "records under the profiler differ from the untraced sweep")
    out.attempted += len(specs)
    out.add_self_time(grouped)
    layers["trace.overhead_x"] = profiled_s / serial_s
    store_probe(ctx, out, specs, serial)
