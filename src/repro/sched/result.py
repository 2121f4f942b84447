"""Picklable scheduler results: per-job SLO records and the run summary.

:class:`JobRecord` is one job's lifecycle reduced to scalars; the
:class:`SchedResult` aggregates them into the service-level metrics a
scheduling study reports — wait time, slowdown, energy per job,
rejection count, and p50/p95/p99 tails — plus the power-budget evidence
(peak cluster power, coordinator rounds, any cluster-budget violations).

Two aggregation paths coexist:

* **retained jobs** (the default for small runs): ``jobs`` carries every
  :class:`JobRecord` and percentiles are *exact* — computed from one
  cached sort per metric, never re-sorted per call;
* **streamed** (``retain_jobs=False`` on the spec): ``jobs`` is empty
  and every metric comes from :class:`~repro.sched.aggregate.SchedStats`
  — exact sums/counts plus :class:`~repro.sched.sketch.QuantileSketch`
  tails with a pinned relative-error bound.  This is what lets a
  million-job run produce a result whose size is independent of job
  count.

Everything is frozen scalars/tuples so results cross process boundaries
and live in the harness result cache exactly like
:class:`~repro.harness.record.MeasurementRecord` does.  ``wall_s`` (host
time) is excluded from equality for the same reason as there: two runs
of one spec are bit-identical *simulations* regardless of host speed —
which is precisely what the determinism tests assert.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.measure.report import MeasurementRow, format_measurement_table
from repro.sched.aggregate import SchedStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.spec import SchedSpec
    from repro.validate.violations import Violation

#: ``format()`` prints at most this many per-job rows; a retained run
#: larger than this shows the head plus an ellipsis line.
MAX_FORMAT_ROWS = 64


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ranked(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank lookup into an already-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class JobRecord:
    """One job's full lifecycle, reduced to picklable scalars."""

    index: int
    app: str
    threads: int
    node: str
    submit_s: float
    start_s: float
    finish_s: float
    #: Paper-style measured region figures for this job alone.
    time_s: float
    energy_j: float
    avg_watts: float

    @property
    def wait_s(self) -> float:
        """Time spent queued before the job started running."""
        return self.start_s - self.submit_s

    @property
    def turnaround_s(self) -> float:
        return self.finish_s - self.submit_s

    @property
    def slowdown(self) -> float:
        """Turnaround over service time (1.0 = no queueing penalty)."""
        if self.time_s <= 0:
            return 1.0
        return self.turnaround_s / self.time_s


@dataclass(frozen=True)
class SchedResult:
    """Outcome of one scheduled cluster run (picklable, cacheable)."""

    spec: "SchedSpec"
    jobs: tuple[JobRecord, ...]
    rejected: tuple[int, ...]  # trace indices of shed jobs (bounded sample)
    makespan_s: float
    peak_power_w: float
    #: Per-node count of jobs each node ran (includes idle nodes as 0).
    jobs_per_node: dict[str, int]
    coordinator_rounds: int
    engine_events: int
    peak_queue_depth: int
    #: Cluster-budget invariant violations observed during the run
    #: (bounded sample; ``stats.violation_count`` has the exact total).
    budget_violations: tuple["Violation", ...] = ()
    #: Streaming aggregates — always present on newly produced results;
    #: the single source of truth when ``jobs`` is not retained.
    stats: Optional[SchedStats] = None
    #: Host wall-clock seconds spent executing (never part of equality).
    wall_s: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------ metrics
    @property
    def completed(self) -> int:
        if self.jobs:
            return len(self.jobs)
        return self.stats.completed if self.stats is not None else 0

    @property
    def rejected_count(self) -> int:
        """Exact number of shed jobs (``rejected`` may be a sample)."""
        if self.stats is not None:
            return self.stats.rejected
        return len(self.rejected)

    @property
    def submitted(self) -> int:
        return self.completed + self.rejected_count

    @property
    def total_energy_j(self) -> float:
        if self.jobs:
            return sum(j.energy_j for j in self.jobs)
        return self.stats.energy_sum_j if self.stats is not None else 0.0

    @property
    def energy_per_job_j(self) -> float:
        done = self.completed
        return self.total_energy_j / done if done else 0.0

    @property
    def mean_wait_s(self) -> float:
        if self.jobs:
            return sum(j.wait_s for j in self.jobs) / len(self.jobs)
        if self.stats is not None and self.stats.completed:
            return self.stats.wait_sum_s / self.stats.completed
        return 0.0

    @property
    def mean_slowdown(self) -> float:
        if self.jobs:
            return sum(j.slowdown for j in self.jobs) / len(self.jobs)
        if self.stats is not None and self.stats.completed:
            return self.stats.slowdown_sum / self.stats.completed
        return 0.0

    @property
    def mean_edp_js(self) -> float:
        """Mean per-job energy-delay product, J·s (delay = turnaround).

        Using *turnaround* rather than bare service time makes queue
        ordering part of the metric — a policy that runs cheap short
        jobs first lowers it — which is what the policy tournament
        ranks.  Exact over retained jobs; the streamed fallback is the
        product-of-means approximation (documented as such, since the
        exact per-job product is not recoverable from separate sums).
        """
        if self.jobs:
            return sum(
                j.energy_j * j.turnaround_s for j in self.jobs
            ) / len(self.jobs)
        if self.stats is not None and self.stats.completed:
            n = self.stats.completed
            mean_energy = self.stats.energy_sum_j / n
            mean_turnaround = (
                self.stats.wait_sum_s + self.stats.service_sum_s
            ) / n
            return mean_energy * mean_turnaround
        return 0.0

    # ----------------------------------------------------- tail metrics
    def _sorted_metric(self, metric: str) -> Sequence[float]:
        """One cached sort per metric per result (jobs retained only)."""
        cache = self.__dict__.get("_sorted_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_sorted_cache", cache)
        ordered = cache.get(metric)
        if ordered is None:
            ordered = sorted(getattr(j, metric) for j in self.jobs)
            cache[metric] = ordered
        return ordered

    def _tail(self, metric: str, sketch_name: str, pct: float) -> float:
        if self.jobs:
            return _ranked(self._sorted_metric(metric), pct)
        if self.stats is not None:
            return getattr(self.stats, sketch_name).quantile(pct)
        return 0.0

    def wait_percentile_s(self, pct: float) -> float:
        return self._tail("wait_s", "wait_sketch", pct)

    def slowdown_percentile(self, pct: float) -> float:
        return self._tail("slowdown", "slowdown_sketch", pct)

    # ------------------------------------------- harness-compatible view
    #: The executor's telemetry reads time_s/energy_j/watts off whatever
    #: record a spec produces; for a scheduled run the natural analogues
    #: are makespan, total trace energy, and the peak coordinated power.
    @property
    def time_s(self) -> float:
        return self.makespan_s

    @property
    def energy_j(self) -> float:
        return self.total_energy_j

    @property
    def watts(self) -> float:
        return self.peak_power_w

    # ------------------------------------------------------------ identity
    def result_digest(self) -> str:
        """Stable SHA-256 over the result's deterministic content.

        This is the resume-identity witness: an uninterrupted streamed
        run and a kill-and-resume of the same spec must produce equal
        digests.  ``wall_s`` is excluded (host time); everything else —
        including sketch states and retained job scalars — is folded in
        with exact float ``repr``.
        """
        h = hashlib.sha256()
        h.update(self.spec.digest.encode())
        if self.stats is not None:
            h.update(self.stats.canonical().encode())
        for job in self.jobs:
            h.update((
                f"{job.index}|{job.app}|{job.threads}|{job.node}|"
                f"{job.submit_s!r}|{job.start_s!r}|{job.finish_s!r}|"
                f"{job.time_s!r}|{job.energy_j!r}|{job.avg_watts!r}\n"
            ).encode())
        h.update(f"rejected={','.join(map(str, self.rejected))}".encode())
        h.update(
            f"|makespan={self.makespan_s!r}|peak={self.peak_power_w!r}"
            f"|rounds={self.coordinator_rounds}|events={self.engine_events}"
            f"|queue={self.peak_queue_depth}"
            f"|violations={len(self.budget_violations)}".encode()
        )
        return h.hexdigest()

    # ------------------------------------------------------------ display
    def format(self) -> str:
        shown = self.jobs[:MAX_FORMAT_ROWS]
        rows = [
            MeasurementRow(
                label=f"{job.node}:j{job.index}:{job.app}",
                time_s=job.time_s,
                energy_j=job.energy_j,
                avg_watts=job.avg_watts,
            )
            for job in shown
        ]
        lines = []
        if rows:
            lines.append(format_measurement_table(
                rows, title="Scheduled cluster run (per-job time/energy/power)"
            ))
            if len(self.jobs) > len(shown):
                lines.append(
                    f"  ... {len(self.jobs) - len(shown)} more jobs "
                    "(full records retained)"
                )
        else:
            lines.append(
                "Scheduled cluster run (streamed: per-job records not "
                "retained; tails from quantile sketches)"
            )
        placement = ", ".join(
            f"{name}:{count}" for name, count in sorted(self.jobs_per_node.items())
        )
        lines.extend([
            f"jobs: {self.completed} completed, {self.rejected_count} "
            f"rejected of {self.submitted} submitted (peak queue depth "
            f"{self.peak_queue_depth})",
            f"placement: {placement}",
            f"makespan: {self.makespan_s:.2f} s; "
            f"peak cluster power {self.peak_power_w:.1f} W "
            f"(budget {self.spec.budget_w:.1f} W)",
            f"energy: {self.total_energy_j:.1f} J total, "
            f"{self.energy_per_job_j:.1f} J/job",
            f"wait: mean {self.mean_wait_s:.2f} s, "
            f"p50 {self.wait_percentile_s(50):.2f} / "
            f"p95 {self.wait_percentile_s(95):.2f} / "
            f"p99 {self.wait_percentile_s(99):.2f} s",
            f"slowdown: mean {self.mean_slowdown:.2f}, "
            f"p95 {self.slowdown_percentile(95):.2f}",
        ])
        if self.stats is not None and self.stats.segments > 1:
            lines.append(
                f"executed in {self.stats.segments} checkpointed segments"
            )
        if self.budget_violations:
            lines.append(
                f"cluster-budget violations: {len(self.budget_violations)}"
            )
            lines.extend(f"  {v}" for v in self.budget_violations[:5])
        return "\n".join(lines)

    def summary_line(self) -> str:
        return (
            f"{self.spec.describe()}: {self.completed}/{self.submitted} jobs, "
            f"makespan {self.makespan_s:.1f} s, "
            f"{self.energy_per_job_j:.0f} J/job, "
            f"p95 wait {self.wait_percentile_s(95):.2f} s, "
            f"peak {self.peak_power_w:.0f} W"
        )
