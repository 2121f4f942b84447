"""Energy-aware cluster job scheduler (extension subsystem).

The paper measures and throttles *one* node; its conclusion argues the
mechanisms "would operate well within a multi-node power clamping
environment".  This package builds that environment's missing tenant: a
cluster-level scheduler that places an open-loop stream of OpenMP jobs
onto power-budgeted nodes — and scales it to million-job traces via
streaming everything.

* :mod:`~repro.sched.workload` — deterministic seeded arrival traces
  (steady / poisson / bursty / diurnal) over the app registry, yielded
  lazily by :func:`~repro.sched.workload.iter_trace`;
* :mod:`~repro.sched.queue` — bounded admission queue with shedding;
* :mod:`~repro.sched.policy` — pluggable placement policies (FCFS,
  best-fit power packing, EDP-greedy, power-aware water-filling, and
  the profile-driven ``predicted`` policy backed by
  :mod:`repro.cosched`);
* :mod:`~repro.sched.cluster` — the multi-node simulation: jobs run in
  sequence on the same :class:`~repro.cluster.node_sim.ClusterNode`
  stack ``run_cluster`` uses, the global :class:`~repro.cluster.\
coordinator.PowerCoordinator` re-dividing the budget, hardened teardown,
  windowed streaming arrivals;
* :mod:`~repro.sched.sketch` / :mod:`~repro.sched.aggregate` — the
  streaming aggregation spine: deterministic quantile sketches and O(1)
  accumulators so result size is independent of job count;
* :mod:`~repro.sched.checkpoint` — segmented execution with atomic
  snapshots: kill-and-resume is bit-identical to an uninterrupted run;
* :mod:`~repro.sched.analytic` / :mod:`~repro.sched.roofline` — the
  closed-form (Afzal-style roofline) execution mode and per-run oracle
  that make million-job sweeps tractable and auditable;
* :mod:`~repro.sched.spec` / :mod:`~repro.sched.result` — digestable
  specs and picklable SLO results that ride the harness cache and
  worker fan-out unchanged.

The scheduler's per-job events (``JobSubmitted``, ``JobRejected``,
``JobPlaced``, ``SchedJobFinished``, ``SchedFinished``) are defined with
every other lifecycle event in :mod:`repro.harness.telemetry`.
"""

from repro.sched.aggregate import SchedAccumulator, SchedStats
from repro.sched.analytic import AnalyticSim, run_analytic
from repro.sched.checkpoint import (
    SchedCheckpoint,
    checkpoint_path,
    load_checkpoint,
    run_segmented,
    save_checkpoint,
)
from repro.sched.cluster import ClusterSim, build_result, run_sched
from repro.sched.policy import (
    POLICIES,
    ClusterState,
    NodeView,
    PlacementPolicy,
    PredictedPlacement,
    estimate_job_power_w,
    make_policy,
)
from repro.sched.queue import AdmissionQueue
from repro.sched.result import JobRecord, SchedResult, percentile
from repro.sched.roofline import RooflinePoint, job_cost, roofline_envelope
from repro.sched.sketch import QuantileSketch
from repro.sched.spec import EXECUTION_MODES, SchedSpec
from repro.sched.workload import (
    DEFAULT_JOB_APPS,
    TRACE_PROFILES,
    Job,
    generate_trace,
    iter_trace,
    offered_load_summary,
)

__all__ = [
    "AdmissionQueue",
    "AnalyticSim",
    "ClusterSim",
    "ClusterState",
    "DEFAULT_JOB_APPS",
    "EXECUTION_MODES",
    "Job",
    "JobRecord",
    "NodeView",
    "POLICIES",
    "PlacementPolicy",
    "PredictedPlacement",
    "QuantileSketch",
    "RooflinePoint",
    "SchedAccumulator",
    "SchedCheckpoint",
    "SchedResult",
    "SchedSpec",
    "SchedStats",
    "TRACE_PROFILES",
    "build_result",
    "checkpoint_path",
    "estimate_job_power_w",
    "generate_trace",
    "iter_trace",
    "job_cost",
    "load_checkpoint",
    "make_policy",
    "offered_load_summary",
    "percentile",
    "roofline_envelope",
    "run_analytic",
    "run_sched",
    "run_segmented",
    "save_checkpoint",
]
