"""Declarative scheduler-run specifications.

A :class:`SchedSpec` is the scheduler analogue of
:class:`~repro.harness.spec.RunSpec`: the hashable, picklable
description of one scheduled cluster run, with a canonical-JSON SHA-256
content digest so results cache and fan out through the same
:class:`~repro.harness.executor.BatchExecutor` machinery.  Because the
simulation (trace generation included) is deterministic, a spec fully
determines its :class:`~repro.sched.result.SchedResult` — which is what
makes serial-vs-parallel bit-identity a checkable property here too.

It implements the :class:`~repro.harness.spec.Spec` protocol under
``KIND = "sched"``: :meth:`SchedSpec.execute` runs the cluster through
:func:`~repro.sched.cluster.run_sched`, and
:meth:`SchedSpec.validate_execute` reports the budget-invariant
violations the run recorded on its result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Optional

from repro.errors import ConfigError
from repro.harness.spec import Spec
from repro.sched.policy import POLICIES
from repro.sched.workload import DEFAULT_JOB_APPS, TRACE_PROFILES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cosched.predictor import PredictorModel
    from repro.harness.telemetry import TelemetryBus
    from repro.sched.result import SchedResult
    from repro.validate.violations import ValidationReport

#: Bump when the sched spec schema (or ClusterSim semantics it maps
#: onto) changes incompatibly; folded into every digest.  Namespaced
#: distinctly from RunSpec's schema so the two digest spaces can never
#: collide even on identical payloads.
#:
#: sched-2: streaming traces draw each job's randomness interleaved
#: (gap, app, threads, scale per job) instead of all gaps up front, and
#: specs grew ``execution``/``retain_jobs``/``segment_jobs`` — results
#: under the old schema are not comparable, so the digest space moves.
SCHED_SPEC_SCHEMA = "sched-2"

#: Recognised execution modes: ``full`` drives the complete per-node
#: qthreads/RCR/clamp stack; ``analytic`` replaces each job's execution
#: with the calibrated roofline closed form (same trace, same policy and
#: admission machinery) so million-job traces run in seconds.
EXECUTION_MODES = ("full", "analytic")


@dataclass(frozen=True)
class SchedSpec(Spec):
    """One fully-specified scheduled cluster run."""

    KIND: ClassVar[str] = "sched"

    profile: str = "poisson"
    policy: str = "fcfs"
    nodes: int = 4
    budget_w: float = 400.0
    jobs: int = 16
    rate_jobs_per_s: float = 1.0
    queue_depth: int = 8
    node_threads: int = 16
    scale: float = 0.5
    seed: int = 0
    #: Scheduler tick and engine drive-slice period.
    period_s: float = 0.25
    #: PowerCoordinator re-division period.
    coordinator_period_s: float = 1.0
    time_limit_s: float = 600.0
    apps: tuple[str, ...] = DEFAULT_JOB_APPS
    #: ``full`` (per-node microsimulation) or ``analytic`` (roofline
    #: closed form per job; the million-job mode).
    execution: str = "full"
    #: Keep every per-job :class:`~repro.sched.result.JobRecord` on the
    #: result.  ``False`` switches to pure streaming aggregation: exact
    #: sums plus quantile sketches, memory independent of job count.
    retain_jobs: bool = True
    #: Execute the trace in drained segments of this many jobs
    #: (checkpointable between segments); 0 = one uninterrupted segment.
    #: Segment boundaries change scheduling (nodes drain between
    #: segments), so this is part of the digest.
    segment_jobs: int = 0
    #: Predictor for the ``predicted`` policy.  ``None`` with
    #: ``policy='predicted'`` materialises the bundled default model so
    #: the digest always names the exact model used; any other policy
    #: must leave it unset.  Folded into the digest via the model's own
    #: content digest — only when present, so every pre-existing spec
    #: digest is unchanged.
    predictor: "Optional[PredictorModel]" = None
    #: Display-only heading; never part of digest, equality or hash.
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.profile not in TRACE_PROFILES:
            raise ConfigError(
                f"unknown trace profile {self.profile!r}; "
                f"one of {', '.join(sorted(TRACE_PROFILES))}"
            )
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown placement policy {self.policy!r}; "
                f"one of {', '.join(sorted(POLICIES))}"
            )
        if self.nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {self.nodes!r}")
        # An int past the float range would pass `< math.inf` and then
        # overflow wherever the budget is used as a float.
        if not 0 < self.budget_w <= sys.float_info.max:
            raise ConfigError(
                f"budget must be finite and positive, got {self.budget_w!r}"
            )
        # Likewise for the other reals: an int past the float range
        # passes the comparisons below and overflows in the worker.
        for name in ("scale", "rate_jobs_per_s", "period_s",
                     "coordinator_period_s", "time_limit_s"):
            value = getattr(self, name)
            try:
                float(value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(
                    f"{name} must convert to a float, got {value!r}"
                ) from None
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue depth must be >= 1, got {self.queue_depth!r}"
            )
        if self.node_threads < 1:
            raise ConfigError(
                f"node threads must be >= 1, got {self.node_threads!r}"
            )
        if not self.rate_jobs_per_s > 0:
            raise ConfigError(
                f"arrival rate must be positive, got {self.rate_jobs_per_s!r}"
            )
        # An infinite scale (JSON admits ``Infinity``) would otherwise
        # reach the worker and fail there as a NaN or infinite job time.
        if not 0 < self.scale < math.inf:
            raise ConfigError(
                f"scale must be finite and positive, got {self.scale!r}"
            )
        if not (0 < self.period_s < math.inf
                and 0 < self.coordinator_period_s < math.inf):
            raise ConfigError("periods must be finite and positive")
        if not self.time_limit_s > 0:
            raise ConfigError(
                f"time limit must be positive, got {self.time_limit_s!r}"
            )
        if self.execution not in EXECUTION_MODES:
            raise ConfigError(
                f"unknown execution mode {self.execution!r}; "
                f"one of {', '.join(EXECUTION_MODES)}"
            )
        if self.segment_jobs < 0:
            raise ConfigError(
                f"segment_jobs must be >= 0, got {self.segment_jobs!r}"
            )
        if self.policy == "predicted":
            if self.predictor is None:
                from repro.cosched.predictor import default_model

                object.__setattr__(self, "predictor", default_model())
        elif self.predictor is not None:
            raise ConfigError(
                f"policy {self.policy!r} does not take a predictor model "
                f"(only 'predicted' does)"
            )
        # Normalise so list-vs-tuple cannot split the digest space.
        object.__setattr__(self, "apps", tuple(self.apps))
        if not self.apps:
            raise ConfigError("apps must not be empty")
        from repro.apps import APP_REGISTRY

        for app in self.apps:
            if app not in APP_REGISTRY:
                raise ConfigError(
                    f"unknown application {app!r}; "
                    f"known: {', '.join(sorted(APP_REGISTRY))}"
                )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def payload_dict(self) -> dict[str, Any]:
        """The digestable content: every field that affects the result."""
        payload: dict[str, Any] = {
            "schema": SCHED_SPEC_SCHEMA,
            "profile": self.profile,
            "policy": self.policy,
            "nodes": self.nodes,
            "budget_w": self.budget_w,
            "jobs": self.jobs,
            "rate_jobs_per_s": self.rate_jobs_per_s,
            "queue_depth": self.queue_depth,
            "node_threads": self.node_threads,
            "scale": self.scale,
            "seed": self.seed,
            "period_s": self.period_s,
            "coordinator_period_s": self.coordinator_period_s,
            "time_limit_s": self.time_limit_s,
            "apps": list(self.apps),
            "execution": self.execution,
            "retain_jobs": self.retain_jobs,
            "segment_jobs": self.segment_jobs,
        }
        # Conditional key: absent for every non-predicted spec, so the
        # whole pre-existing digest space is bit-stable.
        if self.predictor is not None:
            payload["predictor"] = self.predictor.digest
        return payload

    # ------------------------------------------------------------------
    # execution / display
    # ------------------------------------------------------------------
    def execute(
        self,
        *,
        bus: "TelemetryBus | None" = None,
        checkpoint_dir=None,
        registry=None,
        tracer=None,
    ) -> "SchedResult":
        """Run this spec in-process.

        ``checkpoint_dir`` is an execution detail (where checkpoints
        live on disk), never part of the digest: the result is
        bit-identical with or without it.  ``registry``/``tracer`` are
        optional :mod:`repro.obs` hooks with the same property.
        """
        from repro.sched.cluster import run_sched

        return run_sched(self, bus=bus, checkpoint_dir=checkpoint_dir,
                         registry=registry, tracer=tracer)

    def validate_execute(
        self, *, interval_s: float = 0.1
    ) -> tuple["SchedResult", "ValidationReport"]:
        """Run unchecked and report the run's budget-invariant violations.

        A scheduled run's invariants live in the cluster-budget auditors,
        which always run; ``interval_s`` (the node checker's battery
        period) does not apply.
        """
        from repro.validate.violations import ValidationReport

        record = self.execute()
        return record, ValidationReport(
            spec=self, violations=tuple(record.budget_violations))

    @property
    def segment_count(self) -> int:
        """Number of drained execution segments this spec runs as."""
        if self.segment_jobs <= 0:
            return 1
        return -(-self.jobs // self.segment_jobs)

    def describe(self) -> str:
        if self.label:
            return self.label
        text = (
            f"sched {self.profile}/{self.policy} n{self.nodes} "
            f"{self.budget_w:.0f}W j{self.jobs}"
        )
        if self.execution != "full":
            text += f" [{self.execution}]"
        if self.seed:
            text += f" seed={self.seed}"
        return text
