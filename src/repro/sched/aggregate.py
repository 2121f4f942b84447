"""Streaming aggregation of scheduled-run outcomes.

The old pipeline carried every :class:`~repro.sched.result.JobRecord`
to the end of the run and derived metrics from the full tuple; at a
million jobs that tuple *is* the memory problem.  This module is the
replacement spine: a mutable :class:`SchedAccumulator` that folds each
finished job into O(1) state — exact sums, counts, min/max, per-node
tallies — plus a :class:`~repro.sched.sketch.QuantileSketch` per tail
metric (wait, slowdown, energy/job), and snapshots into the frozen,
picklable :class:`SchedStats` that rides inside
:class:`~repro.sched.result.SchedResult`.

The accumulator is also the unit of checkpointing: it pickles
losslessly (floats round-trip exactly), and folding jobs ``0..k`` then
resuming from a restored copy is bit-identical to folding ``0..n``
straight through — the resume-identity invariant in
:mod:`repro.validate.scale` pins exactly that.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.sched.sketch import DEFAULT_REL_ERR, QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.result import JobRecord
    from repro.validate.violations import Violation

#: How many rejected trace indices / budget violations the accumulator
#: retains verbatim; beyond this only the exact counts survive (the
#: retained prefix keeps small-run reports and tests fully informative).
MAX_RETAINED_REJECTIONS = 1024
MAX_RETAINED_VIOLATIONS = 64


@dataclass(frozen=True)
class SchedStats:
    """Frozen snapshot of a run's streaming aggregates (picklable)."""

    completed: int
    rejected: int
    energy_sum_j: float
    wait_sum_s: float
    slowdown_sum: float
    service_sum_s: float
    makespan_s: float
    peak_power_w: float
    peak_queue_depth: int
    coordinator_rounds: int
    engine_events: int
    violation_count: int
    jobs_per_node: dict[str, int]
    wait_sketch: QuantileSketch
    slowdown_sketch: QuantileSketch
    energy_sketch: QuantileSketch
    segments: int = 1

    @property
    def submitted(self) -> int:
        return self.completed + self.rejected

    def canonical(self) -> str:
        """Deterministic text form (folded into the result digest)."""
        nodes = ",".join(
            f"{name}:{count}"
            for name, count in sorted(self.jobs_per_node.items())
        )
        return "|".join([
            f"completed={self.completed}",
            f"rejected={self.rejected}",
            f"energy={self.energy_sum_j!r}",
            f"wait={self.wait_sum_s!r}",
            f"slowdown={self.slowdown_sum!r}",
            f"service={self.service_sum_s!r}",
            f"makespan={self.makespan_s!r}",
            f"peak_power={self.peak_power_w!r}",
            f"peak_queue={self.peak_queue_depth}",
            f"rounds={self.coordinator_rounds}",
            f"events={self.engine_events}",
            f"violations={self.violation_count}",
            f"segments={self.segments}",
            f"nodes=[{nodes}]",
            f"wait<{self.wait_sketch.canonical()}>",
            f"slowdown<{self.slowdown_sketch.canonical()}>",
            f"energy<{self.energy_sketch.canonical()}>",
        ])

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class SchedAccumulator:
    """Mutable streaming aggregator — one per run, survives checkpoints."""

    rel_err: float = DEFAULT_REL_ERR
    completed: int = 0
    rejected_count: int = 0
    energy_sum_j: float = 0.0
    wait_sum_s: float = 0.0
    slowdown_sum: float = 0.0
    service_sum_s: float = 0.0
    makespan_s: float = 0.0
    peak_power_w: float = 0.0
    peak_queue_depth: int = 0
    coordinator_rounds: int = 0
    engine_events: int = 0
    violation_count: int = 0
    segments: int = 0
    jobs_per_node: dict[str, int] = field(default_factory=dict)
    rejected_indices: list[int] = field(default_factory=list)
    violations: "list[Violation]" = field(default_factory=list)
    wait_sketch: QuantileSketch = None  # type: ignore[assignment]
    slowdown_sketch: QuantileSketch = None  # type: ignore[assignment]
    energy_sketch: QuantileSketch = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.wait_sketch is None:
            self.wait_sketch = QuantileSketch(self.rel_err)
        if self.slowdown_sketch is None:
            self.slowdown_sketch = QuantileSketch(self.rel_err)
        if self.energy_sketch is None:
            self.energy_sketch = QuantileSketch(self.rel_err)

    # ------------------------------------------------------------------
    def note_node(self, name: str) -> None:
        """Register a node so idle nodes still appear with count 0."""
        self.jobs_per_node.setdefault(name, 0)

    def add(
        self,
        node: str,
        submit_s: float,
        start_s: float,
        finish_s: float,
        time_s: float,
        energy_j: float,
    ) -> None:
        """Fold one finished job, given as the scalars of its record.

        Wait and slowdown use :class:`~repro.sched.result.JobRecord`'s
        ``wait_s`` and ``slowdown`` expressions, so folding the scalars
        and folding the record leave bit-identical state; the analytic
        loop calls this without building a record at all.
        """
        wait = start_s - submit_s
        slowdown = 1.0 if time_s <= 0 else (finish_s - submit_s) / time_s
        self.completed += 1
        self.energy_sum_j += energy_j
        self.wait_sum_s += wait
        self.slowdown_sum += slowdown
        self.service_sum_s += time_s
        if finish_s > self.makespan_s:
            self.makespan_s = finish_s
        self.jobs_per_node[node] = self.jobs_per_node.get(node, 0) + 1
        self.wait_sketch.add(wait)
        self.slowdown_sketch.add(slowdown)
        self.energy_sketch.add(energy_j)

    def add_job(self, record: "JobRecord") -> None:
        self.add(record.node, record.submit_s, record.start_s,
                 record.finish_s, record.time_s, record.energy_j)

    def add_rejection(self, index: int) -> None:
        self.rejected_count += 1
        if len(self.rejected_indices) < MAX_RETAINED_REJECTIONS:
            self.rejected_indices.append(index)

    def add_violations(self, violations) -> None:
        for violation in violations:
            self.violation_count += 1
            if len(self.violations) < MAX_RETAINED_VIOLATIONS:
                self.violations.append(violation)

    def add_segment(
        self,
        *,
        peak_power_w: float,
        peak_queue_depth: int,
        coordinator_rounds: int,
        engine_events: int,
    ) -> None:
        """Fold one execution segment's run-level aggregates."""
        self.segments += 1
        self.peak_power_w = max(self.peak_power_w, peak_power_w)
        self.peak_queue_depth = max(self.peak_queue_depth, peak_queue_depth)
        self.coordinator_rounds += coordinator_rounds
        self.engine_events += engine_events

    # ------------------------------------------------------------------
    def snapshot(self) -> SchedStats:
        """A frozen copy of the current aggregates."""
        return SchedStats(
            completed=self.completed,
            rejected=self.rejected_count,
            energy_sum_j=self.energy_sum_j,
            wait_sum_s=self.wait_sum_s,
            slowdown_sum=self.slowdown_sum,
            service_sum_s=self.service_sum_s,
            makespan_s=self.makespan_s,
            peak_power_w=self.peak_power_w,
            peak_queue_depth=self.peak_queue_depth,
            coordinator_rounds=self.coordinator_rounds,
            engine_events=self.engine_events,
            violation_count=self.violation_count,
            jobs_per_node=dict(self.jobs_per_node),
            wait_sketch=self.wait_sketch.copy(),
            slowdown_sketch=self.slowdown_sketch.copy(),
            energy_sketch=self.energy_sketch.copy(),
            segments=max(self.segments, 1),
        )
