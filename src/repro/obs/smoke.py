"""End-to-end observability smoke: instruments to exposition to trace.

``python -m repro.obs.smoke`` (or ``make obs-smoke``) exercises the
whole observability path in a few seconds against throwaway state:

1. start a service, run a spec, restart a second service over the warm
   cache and re-submit — producing a real cache hit;
2. fetch the ``metrics`` frame and assert the Prometheus exposition
   parses and carries the headline series (queue depth, per-frame
   latency quantiles, crash counter, cache hits) plus the registry's
   own observer-overhead books;
3. render ``repro obs report`` output from the live frame;
4. run a tiny scheduled campaign with a sim-time tracer and JSON-load
   the Chrome trace it writes;
5. run a small segmented analytic campaign under a registry and check
   its sched counters match the result's placed and shed counts;
6. audit every snapshot with :func:`repro.validate.obs.check_snapshot`.

Exit code 0 and a single ``obs smoke OK`` line on success; any violated
invariant raises.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.harness.spec import RunSpec
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    SpanRecorder,
    parse_prometheus,
    render_metrics_frame,
)
from repro.sched.spec import SchedSpec
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig
from repro.service.testing import ServiceThread
from repro.validate.obs import check_snapshot

SPEC = RunSpec(app="nqueens", threads=2, scale=0.05, seed=7)


def _service_config(root: Path) -> ServiceConfig:
    return ServiceConfig(
        port=0,
        workers=1,
        queue_depth=8,
        timeout_s=60.0,
        cache_root=str(root / "cache"),
        journal_path=str(root / "journal.jsonl"),
    )


def _assert_no_violations(snapshot: MetricsSnapshot, where: str) -> None:
    violations = check_snapshot(snapshot)
    assert not violations, f"{where}: {[v.message for v in violations]}"


def run_smoke(root: Path) -> str:
    # -- service leg: execute once, then hit the cache from a restart --
    with ServiceThread(_service_config(root)) as svc:
        with ServiceClient(port=svc.port, name="obs-smoke") as client:
            done = client.submit_and_wait(SPEC, timeout_s=120.0)
            assert done["state"] == "done", done
    with ServiceThread(_service_config(root)) as svc:
        with ServiceClient(port=svc.port, name="obs-smoke") as client:
            done = client.submit_and_wait(SPEC, timeout_s=120.0)
            assert done["state"] == "done", done
            frame = client.metrics()

    exposition = frame["prometheus"]
    parsed = parse_prometheus(exposition)
    assert parsed.value("service_queue_depth") is not None
    assert parsed.value("service_frame_seconds", op="submit",
                        quantile="0.99") is not None
    assert parsed.value("service_events_total", event="crashes") == 0.0
    assert parsed.value("service_cache_requests_total", result="hit") >= 1.0
    assert parsed.value("obs_registry_ops_total") > 0.0
    assert parsed.types["service_frame_seconds"] == "summary"

    snapshot = MetricsSnapshot.from_json_obj(frame["snapshot"])
    _assert_no_violations(snapshot, "service snapshot")
    report = render_metrics_frame(frame)
    assert "queue depth" in report and "cache hit" in report, report
    n_series = len(parsed.samples)

    # -- sched leg: sim-time spans exported as a loadable Chrome trace --
    registry = MetricsRegistry()
    tracer = SpanRecorder(clock=lambda: 0.0)
    spec = SchedSpec(nodes=2, jobs=5, scale=0.3, seed=3)
    result = spec.execute(registry=registry, tracer=tracer)
    assert result.completed == 5, result
    trace_path = root / "sched-trace.json"
    events = tracer.write_chrome_trace(trace_path)
    assert events == 5, f"expected 5 job spans, wrote {events}"
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 5 and all(e["dur"] > 0 for e in xs)
    _assert_no_violations(registry.snapshot(), "sched snapshot")

    # -- analytic leg: counters folded once per segment, not per job --
    registry = MetricsRegistry()
    tracer = SpanRecorder(clock=lambda: 0.0)
    spec = SchedSpec(policy="predicted", nodes=2, jobs=40, queue_depth=2,
                     rate_jobs_per_s=0.2, execution="analytic",
                     segment_jobs=16, seed=3)
    result = spec.execute(registry=registry, tracer=tracer)
    assert result.completed > 0 and result.rejected_count > 0, result
    analytic = registry.snapshot()
    dispatched = analytic.instruments["sched_jobs_dispatched_total"].series
    shed = analytic.instruments["sched_jobs_shed_total"].series
    assert dispatched == {("predicted",): float(result.completed)}, dispatched
    assert shed == {(): float(result.rejected_count)}, shed
    assert len(tracer.spans) == result.stats.segments == 3, tracer.spans
    _assert_no_violations(analytic, "analytic sched snapshot")

    return (f"obs smoke OK ({n_series} exposition series, "
            f"1 cache hit observed, {events} sched spans traced, "
            f"{result.completed} analytic jobs counted)")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
        print(run_smoke(Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
