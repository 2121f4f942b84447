"""Bit-identity pins for the analytic scheduling path.

The analytic mode (``execution="analytic"``) is the cluster-scale
check of the scheduler, so its outputs are pinned here value for value:
the sha256 of every trace profile at two seeds, and the
``result_digest()`` of a retained 5k-job analytic run under each of the
five placement policies.  A change to the trace draws, the roofline
pricing, the dispatch loop, a policy, the predictor or the streaming
fold that moves one bit fails here.

The trace generator relies on two numpy identities to draw its
uniform variates through ``Generator.random()``; they are pinned too,
so a numpy upgrade that breaks them fails with a message that names
the cause instead of a bare digest mismatch.
"""

import hashlib

import numpy as np
import pytest

from repro.sched import SchedSpec, TRACE_PROFILES, generate_trace
from repro.sim.rng import RngStreams

pytestmark = [pytest.mark.sched, pytest.mark.golden]

TRACE_JOBS = 2000
TRACE_RATE = 0.5

#: sha256 of ``generate_trace(profile, jobs=2000, rate=0.5, seed=seed)``.
PINNED_TRACES: dict[tuple[str, int], str] = {
    ("bursty", 0):
        "49d188842df69141e9d3523cd8484fe60e877e874b1042178b081ca991fc644e",
    ("bursty", 11):
        "8c38543bbadd8ceb376864b848d72509461624108e26a3510d4363f149d9679c",
    ("diurnal", 0):
        "35b0aae34d3c503b5f145a59ca0ba96acca110a46f99bd8c2a832fd2f9a985b4",
    ("diurnal", 11):
        "685741e2a0b43c207f6c34a9c1c804a298c1c005d765dba25301ce4958736412",
    ("poisson", 0):
        "4a7ef7295ad63d21b8725a48f4cb8292510a2e7b127d144b39ae298fe26645c1",
    ("poisson", 11):
        "cb24ce45ffacb0d601ea69b7f06d0a46e905ce5e4de13a94f2149a9dd59d8762",
    ("steady", 0):
        "4d38e4548743289437a0ca8c43681e0610fda0a46b697e3a0cbdb745e983d7fb",
    ("steady", 11):
        "6a3f85ff7547d61ce158a217536385833b86759e8f8e8dc95252443f1173c5d3",
}

#: ``result_digest()`` of :func:`analytic_spec` under each policy.  The
#: rate keeps the queue full and sheds ~1% of arrivals, so placement,
#: holding and rejection all feed the digest.
PINNED_RUNS: dict[str, str] = {
    "fcfs":
        "89e910424d77a94d05a75451d1a8a60d363dfcff84b5fe0e428eac38f27680db",
    "bestfit":
        "71d75b1d1584d61052bb0c7196b24c78bd64f9e7a944fbb96c79fdc57f6781c3",
    "edp":
        "2dc48cac8d5eda5e71cce7c333372cf7820b466d50d2168e884eb38dc40d7e8c",
    "waterfill":
        "f33ae95236639a56626295fc65f2347ca99063e4901daf69deb122865859459b",
    "predicted":
        "b7902cec574e68d29c96f744bc0f92bd571b024bd69a6644621a9cb0073cd1cb",
}


def trace_sha256(profile: str, seed: int) -> str:
    h = hashlib.sha256()
    for job in generate_trace(profile, jobs=TRACE_JOBS,
                              rate_jobs_per_s=TRACE_RATE, seed=seed):
        h.update((
            f"{job.index}|{job.submit_s!r}|{job.app}|{job.threads}|"
            f"{job.scale!r}|{job.compiler}|{job.optlevel}\n"
        ).encode())
    return h.hexdigest()


def analytic_spec(policy: str) -> SchedSpec:
    return SchedSpec(profile="diurnal", policy=policy, nodes=4,
                     budget_w=400.0, jobs=5000, rate_jobs_per_s=0.08,
                     time_limit_s=1e9, execution="analytic", seed=3)


def test_pins_cover_every_profile():
    assert {profile for profile, _ in PINNED_TRACES} == set(TRACE_PROFILES)


@pytest.mark.parametrize("profile,seed", sorted(PINNED_TRACES))
def test_trace_is_pinned(profile, seed):
    assert trace_sha256(profile, seed) == PINNED_TRACES[(profile, seed)]


@pytest.mark.parametrize("policy", sorted(PINNED_RUNS))
def test_analytic_run_is_pinned(policy):
    result = analytic_spec(policy).execute()
    assert result.completed + result.rejected_count == 5000
    assert result.result_digest() == PINNED_RUNS[policy]


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**31 - 1])
def test_numpy_uniform_draws_equal_scaled_random(seed):
    # Generator.uniform(low, high) computes low + (high - low) * random()
    # and 1.25 - 0.75 is exactly 0.5, so the trace may draw either form.
    gen_a = RngStreams(seed).stream("uniform-identity")
    gen_b = RngStreams(seed).stream("uniform-identity")
    for _ in range(2000):
        assert float(gen_a.uniform()) == float(gen_b.random()), (
            f"numpy {np.__version__}: Generator.uniform() no longer "
            f"equals Generator.random(); the pinned traces depend on it"
        )
        assert (float(gen_a.uniform(0.75, 1.25))
                == 0.75 + 0.5 * float(gen_b.random())), (
            f"numpy {np.__version__}: Generator.uniform(0.75, 1.25) no "
            f"longer equals 0.75 + 0.5 * Generator.random(); the pinned "
            f"traces depend on it"
        )
