"""Workload traces: determinism, profile shapes, validation."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.sched.workload import (
    DEFAULT_JOB_APPS,
    Job,
    THREAD_CHOICES,
    TRACE_PROFILES,
    generate_trace,
    offered_load_summary,
)

pytestmark = pytest.mark.sched


@pytest.mark.parametrize("profile", sorted(TRACE_PROFILES))
def test_trace_is_deterministic(profile):
    a = generate_trace(profile, jobs=20, seed=3)
    b = generate_trace(profile, jobs=20, seed=3)
    assert a == b  # bit-identical: same Jobs, same floats


@pytest.mark.parametrize("profile", sorted(TRACE_PROFILES))
def test_trace_shape(profile):
    trace = generate_trace(profile, jobs=25, rate_jobs_per_s=2.0, seed=1)
    assert len(trace) == 25
    assert [j.index for j in trace] == list(range(25))
    times = [j.submit_s for j in trace]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    for job in trace:
        assert job.app in DEFAULT_JOB_APPS
        assert job.threads in THREAD_CHOICES
        # scale is the nominal 0.5 perturbed by ±25%
        assert 0.5 * 0.75 <= job.scale <= 0.5 * 1.25


def test_different_seeds_differ():
    a = generate_trace("poisson", jobs=10, seed=0)
    b = generate_trace("poisson", jobs=10, seed=1)
    assert a != b


def test_profiles_share_seed_but_not_streams():
    """Streams are keyed by (seed, profile): profiles never alias."""
    a = generate_trace("poisson", jobs=10, seed=0)
    b = generate_trace("bursty", jobs=10, seed=0)
    assert [j.submit_s for j in a] != [j.submit_s for j in b]


def test_steady_is_exactly_periodic():
    trace = generate_trace("steady", jobs=8, rate_jobs_per_s=4.0, seed=0)
    gaps = [b.submit_s - a.submit_s for a, b in zip(trace, trace[1:])]
    assert all(g == pytest.approx(0.25) for g in gaps)


def test_bursty_long_run_rate_is_roughly_nominal():
    """Lulls repay burst debt: mean interarrival ~ 1/rate, not 1/(6 rate)."""
    trace = generate_trace("bursty", jobs=300, rate_jobs_per_s=1.0, seed=5)
    mean_gap = trace[-1].submit_s / len(trace)
    assert 0.5 < mean_gap < 2.0


def test_trace_validation_errors():
    with pytest.raises(ConfigError):
        generate_trace("nope", jobs=5)
    with pytest.raises(ConfigError):
        generate_trace("poisson", jobs=0)
    with pytest.raises(ConfigError):
        generate_trace("poisson", jobs=5, rate_jobs_per_s=0.0)
    with pytest.raises(ConfigError):
        generate_trace("poisson", jobs=5, apps=())

    # NaN fails every comparison, so a NaN rate used to pass the check:
    # diurnal thinning then never accepted a job (``x <= nan`` is False)
    # and the other profiles gave NaN arrival times.  The nominal scale
    # becomes each job's scale, so it must be a finite positive real.
    for profile in sorted(TRACE_PROFILES):
        for bad in ({"rate_jobs_per_s": float("nan")},
                    {"scale": float("nan")},
                    {"scale": float("inf")},
                    {"scale": -0.5},
                    {"scale": 0.0}):
            with pytest.raises(ConfigError):
                generate_trace(profile, jobs=3, **bad)


def test_offered_load_summary():
    trace = generate_trace("poisson", jobs=12, seed=0)
    text = offered_load_summary(trace)
    assert "12 jobs" in text
    assert offered_load_summary(()) == "empty trace"
    assert "j0:" in trace[0].describe()


@pytest.mark.parametrize("profile", sorted(TRACE_PROFILES))
def test_trace_jobs_behave_like_constructed_jobs(profile):
    # The trace fills each frozen Job's dict directly instead of calling
    # the dataclass constructor; the result must be the same value.
    for job in generate_trace(profile, jobs=6, seed=4, compiler="maestro",
                              optlevel="O3"):
        built = Job(**{f.name: getattr(job, f.name)
                       for f in dataclasses.fields(Job)})
        assert job == built and built == job
        assert hash(job) == hash(built)
        assert repr(job) == repr(built)
        assert job.describe() == built.describe()
        # Same state in the same field order, so the same pickle bytes.
        assert pickle.dumps(job) == pickle.dumps(built)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and hash(clone) == hash(job)
        moved = dataclasses.replace(job, submit_s=job.submit_s + 1.0)
        assert type(moved) is Job
        assert moved.submit_s == job.submit_s + 1.0
        assert moved.app == job.app and moved.index == job.index
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.scale = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del job.app
