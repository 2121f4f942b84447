"""Streaming traces and streaming aggregation: lazy == materialized."""

import itertools
from dataclasses import replace

import pytest

from repro.sched import (
    SchedSpec,
    TRACE_PROFILES,
    generate_trace,
    iter_trace,
    run_sched,
)

pytestmark = pytest.mark.sched


@pytest.mark.parametrize("profile", sorted(TRACE_PROFILES))
def test_iter_trace_is_bit_identical_to_generate_trace(profile):
    jobs = 40
    eager = generate_trace(profile, jobs=jobs, rate_jobs_per_s=0.5, seed=3)
    lazy = tuple(iter_trace(profile, jobs=jobs, rate_jobs_per_s=0.5, seed=3))
    assert lazy == eager


@pytest.mark.parametrize("start", [0, 1, 7, 39, 40])
def test_iter_trace_reenters_exactly_at_start(start):
    full = list(iter_trace("diurnal", jobs=40, rate_jobs_per_s=0.5, seed=5))
    tail = list(
        iter_trace("diurnal", jobs=40, rate_jobs_per_s=0.5, seed=5,
                   start=start)
    )
    assert tail == full[start:]


def test_iter_trace_is_lazy():
    # Pulling 3 jobs from a million-job trace must not draw the rest.
    source = iter_trace("poisson", jobs=1_000_000, rate_jobs_per_s=1.0,
                        seed=0)
    head = list(itertools.islice(source, 3))
    assert [job.index for job in head] == [0, 1, 2]


def test_streamed_run_retains_no_records_but_same_fold():
    spec = SchedSpec(profile="bursty", policy="fcfs", nodes=2,
                     budget_w=300.0, jobs=8, seed=2)
    retained = run_sched(spec)
    streamed = run_sched(replace(spec, retain_jobs=False))
    assert retained.jobs and not streamed.jobs
    # Same trace through the same accumulator: the fold is bit-identical.
    assert streamed.stats.canonical() == retained.stats.canonical()
    assert streamed.completed == retained.completed
    # The retained run re-sums over its records (index order) while the
    # streamed one reads the accumulator (completion order), so scalar
    # metrics agree to float associativity, and exactly via the stats.
    assert streamed.total_energy_j == retained.stats.energy_sum_j
    assert streamed.total_energy_j == pytest.approx(
        retained.total_energy_j, rel=1e-12
    )
    assert streamed.mean_wait_s == pytest.approx(
        retained.mean_wait_s, rel=1e-12
    )


def test_streamed_tails_come_from_the_sketch():
    spec = SchedSpec(profile="poisson", policy="bestfit", nodes=2,
                     budget_w=300.0, jobs=10, seed=4, retain_jobs=False)
    result = run_sched(spec)
    assert not result.jobs
    exact = run_sched(replace(spec, retain_jobs=True))
    for pct in (50, 95, 99):
        want = exact.wait_percentile_s(pct)
        assert result.wait_percentile_s(pct) == pytest.approx(
            want, rel=result.stats.wait_sketch.rel_err, abs=1e-9
        )
    assert "streamed" in result.format()


def test_rejections_are_counted_beyond_retention():
    # A queue of depth 1 on one node shreds a burst; the count is exact
    # even though the retained indices are bounded.
    spec = SchedSpec(profile="bursty", policy="fcfs", nodes=1,
                     budget_w=150.0, jobs=12, queue_depth=1, seed=6)
    result = run_sched(spec)
    assert result.rejected_count == result.stats.rejected
    assert result.rejected_count == len(result.rejected)  # small run: all kept


def test_retain_jobs_and_segmenting_are_digested():
    base = SchedSpec(profile="steady", policy="fcfs", jobs=8)
    assert base.digest != replace(base, retain_jobs=False).digest
    assert base.digest != replace(base, segment_jobs=4).digest
    assert replace(base, segment_jobs=4).segment_count == 2
    assert replace(base, segment_jobs=3).segment_count == 3
    assert base.segment_count == 1


def test_format_caps_per_job_rows():
    from repro.sched.result import MAX_FORMAT_ROWS

    spec = SchedSpec(profile="steady", policy="fcfs", nodes=4,
                     budget_w=400.0, jobs=70, rate_jobs_per_s=0.05,
                     time_limit_s=100000.0, execution="analytic", seed=1)
    result = run_sched(spec)
    text = result.format()
    assert f"... {70 - MAX_FORMAT_ROWS} more jobs" in text
    assert text.count("node") >= MAX_FORMAT_ROWS


def test_scalar_fold_matches_record_fold():
    # ``add_job(record)`` and ``add(...)`` over the record's scalars
    # must leave identical state, the zero-service-time record (whose
    # slowdown is pinned to 1.0) included.
    from repro.sched import JobRecord, SchedAccumulator

    records = [
        JobRecord(index=0, app="mergesort", threads=8, node="node0",
                  submit_s=0.5, start_s=1.25, finish_s=4.0, time_s=2.75,
                  energy_j=310.0, avg_watts=112.7),
        JobRecord(index=1, app="nqueens", threads=4, node="node1",
                  submit_s=1.0, start_s=1.0, finish_s=1.0, time_s=0.0,
                  energy_j=0.0, avg_watts=0.0),
        JobRecord(index=2, app="reduction", threads=16, node="node0",
                  submit_s=2.0, start_s=4.0, finish_s=9.5, time_s=5.5,
                  energy_j=901.25, avg_watts=163.9),
    ]
    by_record, by_scalars = SchedAccumulator(), SchedAccumulator()
    for record in records:
        by_record.add_job(record)
        by_scalars.add(record.node, record.submit_s, record.start_s,
                       record.finish_s, record.time_s, record.energy_j)
    assert by_scalars.snapshot() == by_record.snapshot()
    assert by_scalars.snapshot().digest() == by_record.snapshot().digest()
    assert by_record.slowdown_sum == (
        records[0].slowdown + 1.0 + records[2].slowdown)
