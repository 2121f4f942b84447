"""The determinism matrix: every execution path yields the same bits.

One spec list is pushed through six execution paths — serial,
process-pooled, cache-hit replay, validate-mode (checker attached), a
one-job child (``run_spec_subprocess``) and a warm service worker that
has already run other specs — and every path must produce records equal
field-for-field to the serial reference.  ``MeasurementRecord``
equality is exact-float dataclass equality (host wall time excluded),
so ``==`` is bit-identity of everything the simulation computed.

This is the harness-level face of the differential guarantee: the
checker observes without perturbing, the pool without reordering, the
cache round-trips without loss, and a reused worker carries nothing
from one job into the next.  Co-scheduling and scheduled specs ride the
same paths, and so do segmented (checkpointable) scheduled specs, whose
reference is the in-process ``run_segmented``.
"""

from __future__ import annotations

import pytest

from repro.config import MeterConfig
from repro.harness.cache import ResultCache
from repro.harness.executor import (
    BatchExecutor,
    execute_spec,
    run_spec_subprocess,
)
from repro.harness.spec import RunSpec
from repro.harness.telemetry import ListSink, RunCached, TelemetryBus
from repro.service.workers import WorkerRunner

pytestmark = pytest.mark.harness

#: A small slice that still covers throttling, an alternate compiler and
#: both metering backends (the software wattmeter, and RAPL with a
#: nonzero observer cost so the overhead charge-back path is on the
#: matrix too).
MATRIX_SPECS = (
    RunSpec("mergesort", "gcc", "O2", threads=8),
    RunSpec("nqueens", "icc", "O2", threads=16),
    RunSpec("dijkstra", "gcc", "O2", threads=16, throttle=True),
    RunSpec("mergesort", "gcc", "O2", threads=8,
            meter=MeterConfig(backend="counter-model")),
    RunSpec("nqueens", "gcc", "O2", threads=8,
            meter=MeterConfig(read_cost_s=0.002)),
)


@pytest.fixture(scope="module")
def reference() -> list:
    return [execute_spec(spec) for spec in MATRIX_SPECS]


def test_serial_matches_reference(reference) -> None:
    records = BatchExecutor(workers=1).run(list(MATRIX_SPECS), sweep="m-serial")
    assert records == reference


def test_parallel_pool_matches_reference(reference) -> None:
    records = BatchExecutor(workers=2).run(list(MATRIX_SPECS), sweep="m-pool")
    assert records == reference


def test_cache_round_trip_matches_reference(tmp_path, reference) -> None:
    cache = ResultCache(root=tmp_path)
    sink = ListSink()
    first = BatchExecutor(cache=cache, bus=TelemetryBus([sink])).run(
        list(MATRIX_SPECS), sweep="m-warm"
    )
    assert not sink.of_type(RunCached)  # cold cache: everything executed
    assert first == reference

    sink2 = ListSink()
    second = BatchExecutor(cache=cache, bus=TelemetryBus([sink2])).run(
        list(MATRIX_SPECS), sweep="m-hit"
    )
    # Warm cache: every record served from disk, still bit-identical.
    assert len(sink2.of_type(RunCached)) == len(MATRIX_SPECS)
    assert second == reference


def test_validate_mode_matches_reference(reference) -> None:
    harness = BatchExecutor(validate=True)
    records = harness.run(list(MATRIX_SPECS), sweep="m-validate")
    assert records == reference
    # And the checker actually ran on every spec while changing nothing.
    for i in range(len(MATRIX_SPECS)):
        report = harness.validation_reports[i]
        assert report.ok and report.batteries > 0


def _through_warm_worker(warmup, specs) -> list:
    """Run ``warmup`` then ``specs`` through one warm service worker."""
    runner = WorkerRunner()
    try:
        outcomes = [runner.run(f"w-{i}", spec)
                    for i, spec in enumerate([warmup, *specs])]
    finally:
        runner.close()
    assert [o.kind for o in outcomes] == ["ok"] * len(outcomes), outcomes
    # One slot, one worker: each spec ran after others had in that process.
    assert len({o.pid for o in outcomes}) == 1
    return [o.record for o in outcomes[1:]]


def test_subprocess_matches_reference(reference) -> None:
    records = [run_spec_subprocess(spec)[0] for spec in MATRIX_SPECS]
    assert records == reference


def test_warm_service_worker_matches_reference(reference) -> None:
    records = _through_warm_worker(RunSpec("reduction", scale=0.05),
                                   MATRIX_SPECS)
    assert records == reference


# ----------------------------------------------------------------------
# the co-scheduling face of the matrix
# ----------------------------------------------------------------------
# Self-executing specs ride the same four paths: a co-run cell, a solo
# baseline, and a scheduled run under the profile-driven ``predicted``
# policy (whose spec digests in its predictor model).  Their records are
# frozen scalar dataclasses, so ``==`` is bit-identity here too.
from repro.cosched import CoschedSpec  # noqa: E402
from repro.sched import SchedSpec  # noqa: E402

COSCHED_MATRIX = (
    CoschedSpec(app="mergesort", injector="inject-membw", level=1.0,
                threads=8, scale=0.1, inj_scale=4.0),
    CoschedSpec(app="nqueens", threads=8, scale=0.1),
    SchedSpec(profile="diurnal", policy="predicted", nodes=2,
              budget_w=300.0, jobs=6, seed=1),
)


@pytest.fixture(scope="module")
def cosched_reference() -> list:
    return [execute_spec(spec) for spec in COSCHED_MATRIX]


def test_cosched_serial_matches_reference(cosched_reference) -> None:
    records = BatchExecutor(workers=1).run(
        list(COSCHED_MATRIX), sweep="cm-serial"
    )
    assert records == cosched_reference


def test_cosched_parallel_pool_matches_reference(cosched_reference) -> None:
    records = BatchExecutor(workers=2).run(
        list(COSCHED_MATRIX), sweep="cm-pool"
    )
    assert records == cosched_reference


def test_cosched_cache_round_trip_matches_reference(
    tmp_path, cosched_reference
) -> None:
    cache = ResultCache(root=tmp_path)
    sink = ListSink()
    first = BatchExecutor(cache=cache, bus=TelemetryBus([sink])).run(
        list(COSCHED_MATRIX), sweep="cm-warm"
    )
    assert not sink.of_type(RunCached)
    assert first == cosched_reference

    sink2 = ListSink()
    second = BatchExecutor(cache=cache, bus=TelemetryBus([sink2])).run(
        list(COSCHED_MATRIX), sweep="cm-hit"
    )
    assert len(sink2.of_type(RunCached)) == len(COSCHED_MATRIX)
    assert second == cosched_reference


def test_cosched_validate_mode_matches_reference(cosched_reference) -> None:
    harness = BatchExecutor(validate=True)
    records = harness.run(list(COSCHED_MATRIX), sweep="cm-validate")
    assert records == cosched_reference
    for i, spec in enumerate(COSCHED_MATRIX):
        report = harness.validation_reports[i]
        assert report.ok, report.summary_line()
        if isinstance(spec, CoschedSpec):
            # Co-runs execute under the full invariant checker; sched
            # specs report through their budget auditors instead.
            assert report.batteries > 0


def test_cosched_warm_service_worker_matches_reference(
    cosched_reference
) -> None:
    records = _through_warm_worker(MATRIX_SPECS[0], COSCHED_MATRIX)
    assert records == cosched_reference


# ----------------------------------------------------------------------
# the checkpoint-resume face of the matrix
# ----------------------------------------------------------------------
# A ``segment_jobs`` spec drains its cluster between segments, the
# boundaries at which a checkpoint can be taken and resumed from
# (tests/sched/test_checkpoint.py kills and resumes one).  Whatever path
# runs it, the result must equal the in-process ``run_segmented``.
from repro.sched import run_segmented  # noqa: E402

SEGMENTED_MATRIX = (
    SchedSpec(profile="poisson", policy="fcfs", nodes=2, budget_w=300.0,
              jobs=5, seed=3, segment_jobs=2),
    SchedSpec(profile="diurnal", policy="bestfit", nodes=4, budget_w=400.0,
              jobs=48, rate_jobs_per_s=0.05, time_limit_s=100000.0, seed=9,
              execution="analytic", segment_jobs=16),
)


@pytest.fixture(scope="module")
def segmented_reference() -> list:
    return [run_segmented(spec) for spec in SEGMENTED_MATRIX]


def test_segmented_serial_matches_reference(segmented_reference) -> None:
    records = BatchExecutor(workers=1).run(
        list(SEGMENTED_MATRIX), sweep="sm-serial"
    )
    assert records == segmented_reference


def test_segmented_parallel_pool_matches_reference(
    segmented_reference
) -> None:
    records = BatchExecutor(workers=2).run(
        list(SEGMENTED_MATRIX), sweep="sm-pool"
    )
    assert records == segmented_reference


def test_segmented_cache_round_trip_matches_reference(
    tmp_path, segmented_reference
) -> None:
    cache = ResultCache(root=tmp_path)
    first = BatchExecutor(cache=cache).run(
        list(SEGMENTED_MATRIX), sweep="sm-warm"
    )
    assert first == segmented_reference
    sink = ListSink()
    second = BatchExecutor(cache=cache, bus=TelemetryBus([sink])).run(
        list(SEGMENTED_MATRIX), sweep="sm-hit"
    )
    assert len(sink.of_type(RunCached)) == len(SEGMENTED_MATRIX)
    assert second == segmented_reference


def test_segmented_warm_service_worker_matches_reference(
    segmented_reference
) -> None:
    records = _through_warm_worker(MATRIX_SPECS[0], SEGMENTED_MATRIX)
    assert records == segmented_reference
