"""Instrumentation is physics-inert: identical results with obs attached.

The acceptance bar for the observability layer is bit-identity, not
"close": attaching a registry and tracer to the harness or the scheduler
must not move a single measured joule, second or digest.  These tests
run each path bare and instrumented and compare exact outputs — the
observability analogue of the golden-trace suite.
"""

import dataclasses

import pytest

from repro.harness.executor import BatchExecutor
from repro.harness.spec import RunSpec
from repro.obs import MetricsRegistry, SpanRecorder
from repro.sched.spec import SchedSpec

pytestmark = pytest.mark.obs

SPECS = [RunSpec(app="nqueens", threads=2, scale=0.05, seed=seed)
         for seed in range(3)]


def _strip_wall(record):
    # wall_s is host wall-clock (legitimately different between runs);
    # everything else is simulated physics and must match exactly.
    out = dataclasses.asdict(record)
    out.pop("wall_s", None)
    return out


def test_harness_records_bit_identical_with_obs_attached():
    bare = BatchExecutor(workers=1, cache=None).run(SPECS, sweep="bare")
    registry, tracer = MetricsRegistry(), SpanRecorder()
    instrumented = BatchExecutor(
        workers=1, cache=None, registry=registry, tracer=tracer,
    ).run(SPECS, sweep="instrumented")
    assert [_strip_wall(r) for r in bare] == \
        [_strip_wall(r) for r in instrumented]
    # and the instruments actually recorded the sweep
    snap = registry.snapshot()
    assert snap.instruments["harness_runs_total"].series[("executed",)] == 3.0
    assert len(tracer.spans) == len(SPECS) + 1  # runs + the sweep span


def test_sched_result_digest_bit_identical_with_obs_attached():
    spec = SchedSpec(nodes=2, jobs=6, scale=0.3, seed=5)
    bare = spec.execute()
    registry, tracer = MetricsRegistry(), SpanRecorder(clock=lambda: 0.0)
    instrumented = spec.execute(registry=registry, tracer=tracer)
    assert bare.result_digest() == instrumented.result_digest()
    snap = registry.snapshot()
    dispatched = snap.instruments["sched_jobs_dispatched_total"]
    assert sum(dispatched.series.values()) == instrumented.completed
    assert len(tracer.spans) == instrumented.completed


@pytest.mark.parametrize("segment_jobs", [0, 7], ids=["whole", "segmented"])
def test_analytic_digest_bit_identical_with_obs_attached(segment_jobs):
    # The analytic path folds its counters and records one span per
    # segment: counts match the result, spans sit in simulated time.
    spec = SchedSpec(nodes=2, jobs=20, queue_depth=2, rate_jobs_per_s=0.2,
                     execution="analytic", segment_jobs=segment_jobs, seed=3)
    bare = spec.execute()
    registry, tracer = MetricsRegistry(), SpanRecorder(clock=lambda: 0.0)
    instrumented = spec.execute(registry=registry, tracer=tracer)
    assert bare.result_digest() == instrumented.result_digest()
    assert instrumented.completed > 0 and instrumented.rejected_count > 0
    snap = registry.snapshot().instruments
    assert snap["sched_jobs_dispatched_total"].series == {
        ("fcfs",): float(instrumented.completed)}
    assert snap["sched_jobs_shed_total"].series == {
        (): float(instrumented.rejected_count)}
    assert "sched_policy_select_seconds" not in snap
    assert len(tracer.spans) == instrumented.stats.segments
    assert tracer.spans[0].start_s == 0.0
    assert tracer.spans[-1].end_s == instrumented.makespan_s
    for before, after in zip(tracer.spans, list(tracer.spans)[1:]):
        assert before.end_s == after.start_s


def test_sched_trace_spans_use_sim_time():
    spec = SchedSpec(nodes=2, jobs=4, scale=0.3, seed=5)
    tracer = SpanRecorder(clock=lambda: 0.0)
    result = spec.execute(tracer=tracer)
    # every span must sit inside the simulated makespan, not wall time
    for span in tracer.spans:
        assert 0.0 <= span.start_s <= span.end_s <= result.makespan_s + 1e-9


def test_spec_digests_never_see_observability():
    spec = SchedSpec(nodes=2, jobs=4)
    assert "registry" not in spec.payload_dict()
    assert "tracer" not in spec.payload_dict()
    # RunSpec's payload too: obs rides on the executor, not the spec
    assert "registry" not in RunSpec(app="nqueens").payload_dict()
