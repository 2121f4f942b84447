"""Workload ``sched-campaign``: one diurnal trace at 400 W on 4 nodes.

* **full** — the policy-tournament cell: 12 jobs under each of the five
  placement policies through the multi-node ``ClusterSim`` (qthreads,
  RCR daemon, power coordinator and clamp on every node).  Its trace is
  the tournament's own (trace seed 0), so its digests are pinned.
* **analytic** — a 200k-job trace under the ``predicted`` policy with
  ``retain_jobs=False``: no physics, only the scheduler (``analytic``,
  ``workload``, ``policy``, ``queue``, ``sketch``) and the co-scheduling
  predictor.  Its trace seed comes from the benchmark seed (folded onto
  the pinned set ``seed % ANALYTIC_SEEDS``); at this size every seed
  offers the same amount of work.

Both results are then stored and re-read once through the harness.
"""

from __future__ import annotations

import statistics
import time

from common import Context, Outcome, profiled, store_probe, timed

POLICIES = ("fcfs", "bestfit", "edp", "waterfill", "predicted")
PROFILE, NODES, BUDGET_W = "diurnal", 4, 400.0
FULL_JOBS = 12
ANALYTIC_JOBS = 200_000
ANALYTIC_RATE = 0.05
ANALYTIC_POLICY = "predicted"
ANALYTIC_SEEDS = 8

#: ``SchedResult.result_digest()`` of each tournament policy (trace seed 0).
PINNED_FULL: dict[str, str] = {
    "fcfs": "309499a9bdcc8c2d347c94120cf5f81c42652c9def53a54247e22a1f6ce91fad",
    "bestfit":
        "e80ffb3b9df8676b754636f94501ffd0ef142f8f2a4b527c45e580aec6bee786",
    "edp": "5823efeea45510322613cc49d97c83259d6eefc01c1fd892edba4d171fa06abe",
    "waterfill":
        "6680dd0e865fe498a9fa03ed7525d9675b6fbe86d387c8ce0dde4eb50773460c",
    "predicted":
        "af84e334a041725ae38e206c021038c6d812981678efbefd9fcd4134b8f2e962",
}
#: ``SchedResult.result_digest()`` of the analytic run, by trace seed.
PINNED_ANALYTIC: dict[int, str] = {
    0: "5d96e0dfd2d0560d6963fbcc6fd8693dca680e7caf02ac83caa52419644805c8",
    1: "f1d343c3dd901ba4dea7ba7de96d0ebd60ebe4e86bec9d34f74f3a0351252c0e",
    2: "da3fdd8706d339e1f1b11a58b8be5f752745e08a788df5c38034d0a36524657a",
    3: "32581c2038e15719afb5d60f1104e625a0f86fabebb439e5b67c8c67d3d2641b",
    4: "ee1d147f75298e3a431ee005c03bb53cbfe209c4c19f18328b51fe05057e2f1d",
    5: "a1334773a61d80c9b1599fd03094e38d82c98adae107b5181e8e5ea5c051825d",
    6: "f4d92c0a039597861db11b21e39aaad577ec1f5f3cea68e9f1bc6bc91dc5441d",
    7: "a0a9e75af357b0eed69d0093320df4c6406ff9d63161a21d5c0f62552d70f2c7",
}


def full_specs() -> list:
    from repro.sched import SchedSpec

    return [SchedSpec(profile=PROFILE, policy=policy, nodes=NODES,
                      budget_w=BUDGET_W, jobs=FULL_JOBS, seed=0)
            for policy in POLICIES]


def analytic_spec(trace_seed: int):
    from repro.sched import SchedSpec

    return SchedSpec(profile=PROFILE, policy=ANALYTIC_POLICY, nodes=NODES,
                     budget_w=BUDGET_W, jobs=ANALYTIC_JOBS,
                     rate_jobs_per_s=ANALYTIC_RATE, time_limit_s=1e9,
                     execution="analytic", retain_jobs=False,
                     seed=trace_seed)


def warm() -> None:
    """Imports, the predictor model and the job apps' fitted profiles."""
    from repro.apps.registry import app_profile
    from repro.harness import BatchExecutor, ResultCache  # noqa: F401
    from repro.sched import cluster, analytic  # noqa: F401
    from repro.sched.workload import DEFAULT_JOB_APPS

    full_specs()
    analytic_spec(0)
    for app in DEFAULT_JOB_APPS:
        app_profile(app)


def _execute(ctx: Context, spec, registry=None):
    with ctx.span(f"SchedSpec.execute:{spec.policy}/{spec.execution}",
                  track="sched"):
        return ctx.clocked(lambda: spec.execute(registry=registry))


def _campaign(ctx: Context, out: Outcome, specs, registry=None):
    """Run the full tournament then the analytic trace; check digests.

    Returns the results and, for the full and the analytic part, their
    ``[wall, reference-speed]`` seconds.
    """
    results, full = [], [0.0, 0.0]
    for spec in specs[:-1]:
        result, wall, ref = _execute(ctx, spec, registry)
        results.append(result)
        full[0] += wall
        full[1] += ref
        pinned = PINNED_FULL[spec.policy]
        out.check(result.result_digest() == pinned,
                  f"full/{spec.policy} digest {result.result_digest()} "
                  f"!= pinned {pinned}")
    analytic, *analytic_s = _execute(ctx, specs[-1])
    results.append(analytic)
    pinned = PINNED_ANALYTIC[specs[-1].seed]
    out.check(analytic.result_digest() == pinned,
              f"analytic seed {specs[-1].seed} digest "
              f"{analytic.result_digest()} != pinned {pinned}")
    out.attempted += len(specs)
    return results, full, analytic_s


def _cached(ctx: Context, out: Outcome, specs, results) -> None:
    """Store every result, then re-read them through the harness."""
    from repro.harness import BatchExecutor, ResultCache

    store = ResultCache(root=ctx.fresh_dir("store"))
    for spec, result in zip(specs, results):
        store.put(spec, result)
    executor = BatchExecutor(workers=1, cache=store)
    with ctx.span("BatchExecutor.run:cached", track="harness"):
        cached = executor.run(specs, sweep="cached")
    out.check(cached == results, "store-served results differ")
    out.attempted += len(specs)


def run(ctx: Context, out: Outcome) -> None:
    trace_seed = ctx.seed % ANALYTIC_SEEDS
    specs = full_specs() + [analytic_spec(trace_seed)]
    deadline = time.perf_counter() + ctx.seconds
    while True:
        start = time.perf_counter()
        results, full, analytic = _campaign(ctx, out, specs)
        out.add("campaign_full_wall_s", full[0])
        out.add("campaign_full_s", full[1])
        out.add("campaign_analytic_wall_s", analytic[0])
        out.add("campaign_analytic_s", analytic[1])
        _cached(ctx, out, specs, results)
        elapsed = time.perf_counter() - start
        if ctx.trace or time.perf_counter() + elapsed > deadline:
            break
    if ctx.trace:
        _per_layer(ctx, out, specs, results, full[0] + analytic[0])


def _per_layer(ctx, out, specs, results, untraced_s):
    from repro.obs import MetricsRegistry
    from repro.sched.workload import iter_trace

    layers = out.layers
    layers["sched.engine_events"] = sum(r.engine_events for r in results)
    layers["sched.jobs_completed"] = sum(r.completed for r in results)
    layers["sched.jobs_shed"] = sum(r.rejected_count for r in results)

    registry = MetricsRegistry()
    (traced, _, _), traced_s, grouped = profiled(
        lambda: _campaign(ctx, out, specs, registry))
    out.check(traced == results,
              "results under the profiler differ from the untraced run")
    out.add_self_time(grouped)
    layers["trace.overhead_x"] = traced_s / untraced_s

    series = registry.snapshot().instruments[
        "sched_policy_select_seconds"].series
    selects = [sketch.quantile(50.0) for sketch in series.values()
               if sketch.count]
    layers["sched.policy_select_us.p50"] = (
        statistics.median(selects) * 1e6 if selects else 0.0)

    spec = specs[-1]
    with ctx.span("iter_trace", track="sched", jobs=spec.jobs):
        jobs, wall = timed(lambda: sum(1 for _ in iter_trace(
            spec.profile, jobs=spec.jobs, rate_jobs_per_s=spec.rate_jobs_per_s,
            seed=spec.seed, apps=spec.apps, scale=spec.scale)))
    out.check(jobs == spec.jobs, f"trace yielded {jobs} of {spec.jobs} jobs")
    layers["sched.trace_gen_ms"] = wall * 1e3
    store_probe(ctx, out, specs, results)
