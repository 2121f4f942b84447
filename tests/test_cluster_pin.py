"""Bit-identity pins for the two multi-node paths.

``run_cluster`` and the scheduler's ``ClusterSim`` both run the same
per-node stack.  These digests were recorded from the implementation
that preceded the shared ``ClusterNode``; any change in per-node rows,
coordinator samples or scheduled-job records shows up here.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster import run_cluster
from repro.sched.spec import SchedSpec

pytestmark = pytest.mark.golden


def _run_cluster_case():
    result = run_cluster(
        [("bots-health", "maestro"), ("bots-sort", "gcc")], 280.0
    )
    return (result.rows, result.peak_power_w, result.samples)


def _sched_case():
    result = SchedSpec(
        profile="bursty", policy="waterfill", nodes=4, budget_w=400.0,
        jobs=12, seed=0,
    ).execute()
    return dataclasses.replace(result, wall_s=0.0)


@pytest.mark.parametrize(
    "case, expected",
    [
        (_run_cluster_case,
         "c1c5402bc21848e258290b7037b80eb7a98633a55a647f0a5dc2f875613c8333"),
        (_sched_case,
         "62198cf000247098d6b11c0cc88c9b9848cec184dc2ce9a6c4aa3bd7d4d9603f"),
    ],
    ids=["run_cluster", "sched"],
)
def test_cluster_paths_are_bit_identical(case, expected):
    digest = hashlib.sha256(repr(case()).encode()).hexdigest()
    assert digest == expected
