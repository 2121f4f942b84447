"""The repository's benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

A run prints its provenance, a table of the workload's end-to-end
metrics (value, quartiles, sample count) and, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
``--trace 1`` runs the workload once more under the profiler and reports
the per-layer metrics instead.  Any output-correctness mismatch prints
``"correct": false`` and exits 1.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import traceback

from common import (
    SRC, BenchError, Context, Outcome, peak_rss_mb, probe_setup, provenance,
)
from helpers import summarize

WORKLOAD_NAMES = ("paper-tables", "service-mixed", "sched-campaign")

#: End-to-end metrics as ``BENCHMARK.json`` names them: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("primary_s", "s"),
    ("secondary_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Which workload metric fills each positional slot, and its scale to s.
SLOTS = {
    "paper-tables": {
        "primary_s": ("sweep_serial_s", 1.0),
        "secondary_s": ("sweep_parallel_s", 1.0),
    },
    "service-mixed": {
        "primary_s": ("latency_p50_ms", 1e-3),
        "secondary_s": ("closed_loop_s", 1.0),
    },
    "sched-campaign": {
        "primary_s": ("campaign_full_s", 1.0),
        "secondary_s": ("campaign_analytic_s", 1.0),
    },
}

#: Units of the workload-named end-to-end metrics in the printed table.
UNITS = {
    "setup_s": "s", "setup_wall_s": "s",
    "sweep_serial_s": "s", "sweep_parallel_s": "s",
    "sweep_serial_wall_s": "s", "sweep_parallel_wall_s": "s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "closed_loop_wall_s": "s",
    "capacity_jobs_per_s": "1/s", "closed_loop_s": "s",
    "campaign_full_s": "s", "campaign_analytic_s": "s",
    "campaign_full_wall_s": "s", "campaign_analytic_wall_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
}

_SELF = ("sim", "hw", "qthreads", "rcr", "throttle", "metering", "measure",
         "apps", "calibration", "harness", "store", "other",
         "sched.analytic", "sched.workload", "sched.policy", "sched.queue",
         "sched.sketch", "cosched.predictor", "cluster")

#: Per-layer metrics of a traced run: (name, unit, better).  Every traced
#: run reports all of them; a layer a workload does not reach reads 0.
PER_LAYER = tuple(
    [(f"self_s.{layer}", "s", "lower") for layer in _SELF] + [
        ("runner.spec_ms.p50", "ms", "lower"),
        ("sim.sim_s_per_wall_s", "1/s", "higher"),
        ("qthreads.tasks_spawned", "count", "lower"),
        ("qthreads.steals", "count", "lower"),
        ("rcr.daemon_ticks", "count", "lower"),
        ("throttle.activations", "count", "lower"),
        ("sched.engine_events", "count", "lower"),
        ("sched.jobs_completed", "count", "higher"),
        ("sched.jobs_shed", "count", "lower"),
        ("harness.pool_busy_frac", "ratio", "higher"),
        ("harness.parallel_inflation", "ratio", "lower"),
        ("store.put_ms.p50", "ms", "lower"),
        ("store.get_ms.p50", "ms", "lower"),
        ("store.get_miss_ms.p50", "ms", "lower"),
        ("store.info_ms", "ms", "lower"),
        ("service.submit_rtt_ms.p50", "ms", "lower"),
        ("service.queue_wait_ms.p50", "ms", "lower"),
        ("service.queue_wait_ms.p90", "ms", "lower"),
        ("service.exec_ms.p50", "ms", "lower"),
        ("service.worker_ms.p50", "ms", "lower"),
        ("service.fork_overhead_ms.p50", "ms", "lower"),
        ("service.attached_frac", "ratio", "higher"),
        ("service.cache_hit_frac", "ratio", "higher"),
        ("service.executed_frac", "ratio", "lower"),
        ("service.shed_frac", "ratio", "lower"),
        ("service.backlog_max", "count", "lower"),
        ("service.journal_append_ms.p50", "ms", "lower"),
        ("service.frame_submit_ms.p50", "ms", "lower"),
        ("loadgen.late_ms.max", "ms", "lower"),
        ("sched.trace_gen_ms", "ms", "lower"),
        ("sched.policy_select_us.p50", "us", "lower"),
        ("trace.overhead_x", "x", "lower"),
    ])


def workload_module(name: str):
    """The module implementing a workload (``warm()`` and ``run()``)."""
    import importlib

    return importlib.import_module(name.replace("-", "_"))


def _value(out: Outcome, name: str) -> float:
    if name in out.values:
        return out.values[name]
    return summarize(out.samples[name])["median"]


def _table(workload: str, out: Outcome) -> list[str]:
    lines = [f"{'metric':<26} {'unit':<6} {'value':>12} {'q1':>12} "
             f"{'q3':>12} {'n':>6}"]
    for name, samples in out.samples.items():
        stats = summarize(samples)
        lines.append(
            f"{name:<26} {UNITS[name]:<6} {_value(out, name):>12.6g} "
            f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['n']:>6}")
    frac = out.failed / out.attempted if out.attempted else 0.0
    lines.append(f"{'failed_frac':<26} {'ratio':<6} {frac:>12.6g} "
                 f"{'':>12} {'':>12} {out.attempted:>6}")
    slots = ", ".join(f"{slot} = {metric}"
                      for slot, (metric, _) in SLOTS[workload].items())
    lines.append(f"(BENCHMARK.json slots: {slots})")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    print("provenance: " + json.dumps(provenance(seed), sort_keys=True))
    module = workload_module(workload)
    ctx = Context(workload=workload, seed=seed, seconds=seconds, trace=trace)
    out = Outcome()
    try:
        if not trace and workload != "service-mixed":
            walls, refs = probe_setup(ctx)
            out.add("setup_wall_s", *walls)
            out.add("setup_s", *refs)
        module.warm()
        module.run(ctx, out)
        trace_path = ctx.export_trace()
    finally:
        ctx.close()
    out.add("peak_rss_mb", peak_rss_mb())

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}")
    for line in _table(workload, out) + out.notes:
        print("  " + line)
    if trace:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<34} {unit:<6} {out.layers.get(name, 0.0):.6g}")
        print(f"  spans exported to {trace_path}")
        metrics = {name: {"value": float(out.layers.get(name, 0.0)),
                          "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {"setup_s": _value(out, "setup_s"),
                  "peak_rss_mb": _value(out, "peak_rss_mb")}
        for slot, (metric, scale) in SLOTS[workload].items():
            values[slot] = _value(out, metric) * scale
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise BenchError(f"{name} is not finite: {metric['value']}")
    for error in out.errors:
        print(f"MISMATCH: {error}", file=sys.stderr)
    print(json.dumps({"correct": not out.errors, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 1 if out.errors else 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results, status = {}, 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        last = ""
        for line in proc.stdout:
            print(line, end="", flush=True)
            last = line
        proc.stdout.close()
        status = max(status, proc.wait())
        try:
            results[workload] = json.loads(last)
        except json.JSONDecodeError:
            results[workload] = None
            status = max(status, 1)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"cannot find the program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except BenchError:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
