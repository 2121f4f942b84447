"""Analytic (roofline closed-form) execution of scheduled traces.

``execution="analytic"`` keeps the *scheduling* machinery real — the
same lazy trace, admission queue and placement policies as the full
simulation — but replaces each job's execution with the calibrated
roofline closed form from :mod:`repro.sched.roofline`: service time and
energy are two multiplies off a cached per-configuration point, so a
job costs a couple of heap operations instead of a full qthreads
runtime, RCR daemon and power-clamp microsimulation.  Measured by the
``sched-campaign`` benchmark on a 2-core x86 host (reference-speed
seconds): the full tournament pays ~0.1 s per job, the 200k-job
analytic trace ~14 µs per job (2.7 s) — i.e. a million-job trace in
under fifteen seconds.  It was ~18 µs (3.6 s) while the trace drew
through numpy's per-call ``integers``/``random`` and built each ``Job``
and busy view through its constructor, ~26 µs (5.2 s) while each job
still built a record and a scaled roofline point and every select
repeated its predictor lookups, and ~41 µs (8.1 s) before the dispatch
loop kept one view per node.

What the analytic mode deliberately does not model: the power clamp
(jobs run unthrottled at their roofline wattage), the coordinator's
budget re-division (``coordinator_rounds`` is 0), and RCR measurement
noise.  Peak cluster power is still tracked (busy nodes at job wattage,
idle nodes at the coordinator's power floor) so budget-sizing sweeps
remain meaningful, and the roofline envelope oracle audits every run's
aggregates at the end.

The event loop is a plain two-stream merge — pending arrivals (pulled
one at a time from :func:`~repro.sched.workload.iter_trace`, so memory
stays O(nodes + queue)) against a finish-time heap — with a fixed
deterministic tie rule (finishes before arrivals at equal times).
Segmentation carries ``(clock, accumulator, records)`` exactly like the
full path, so checkpoint/resume identity holds here too.

Per job the loop builds nothing it throws away: a finished job folds
into the accumulator as scalars (a :class:`~repro.sched.result.JobRecord`
exists only when the spec retains jobs), pricing reads the cached unit
point directly, and the policy snapshots are filled as plain tuples.
What is left per job is the trace's exponential draws (numpy calls),
the policy's ``select`` and the sketch fold.  Observability follows
the same rule: with a registry the sched counters are folded once per
segment from the accumulator, and a tracer gets one sim-time span per
segment.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import TYPE_CHECKING, Optional

from repro.cluster.coordinator import NODE_FLOOR_W
from repro.errors import SimulationError
from repro.harness.telemetry import TelemetryBus
from repro.sched.aggregate import SchedAccumulator
from repro.sched.policy import ClusterState, NodeView, make_policy
from repro.sched.queue import AdmissionQueue
from repro.sched.result import JobRecord, SchedResult
from repro.sched.roofline import _paper_point, roofline_envelope
from repro.sched.workload import Job, iter_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.spec import SchedSpec


class AnalyticSim:
    """One analytic segment: merged arrival/finish event loop."""

    def __init__(
        self,
        spec: "SchedSpec",
        *,
        bus: Optional[TelemetryBus] = None,
        start: int = 0,
        limit: Optional[int] = None,
        clock_s: float = 0.0,
        accumulator: Optional[SchedAccumulator] = None,
        records: Optional[list[JobRecord]] = None,
        registry=None,
        tracer=None,
    ) -> None:
        self.spec = spec
        self.bus = bus if bus is not None else TelemetryBus()
        if limit is None:
            limit = spec.jobs - start
        self._source = itertools.islice(
            iter_trace(
                spec.profile,
                jobs=spec.jobs,
                rate_jobs_per_s=spec.rate_jobs_per_s,
                seed=spec.seed,
                apps=spec.apps,
                scale=spec.scale,
                start=start,
            ),
            limit,
        )
        self.accumulator = (
            accumulator if accumulator is not None else SchedAccumulator()
        )
        self.records: list[JobRecord] = records if records is not None else []
        #: Optional duck-typed ``repro.obs`` hooks, touched once per
        #: segment (never per job): the sched counters are folded from
        #: the accumulator and the tracer gets one sim-time span.
        self.tracer = tracer
        self._counters = self._span = None
        if registry is not None:
            from repro.sched.cluster import sched_counters

            self._counters = sched_counters(registry, spec.policy)
        if tracer is not None:
            self._span = tracer.start(
                f"analytic:{spec.policy}", at=clock_s, track="sched",
                start=start, jobs=limit)
        self.policy = make_policy(spec.policy, model=spec.predictor)
        self.queue = AdmissionQueue(spec.queue_depth)
        self.now = clock_s
        self._t0_sim = clock_s
        self._names = [f"node{i}" for i in range(spec.nodes)]
        self._node_budget_w = spec.budget_w / spec.nodes
        #: The view an idle node shows policies: constant per node.
        self._idle_views = tuple(
            NodeView(name=name, busy=False, budget_w=self._node_budget_w,
                     measured_power_w=0.0, clamp_pressure=0.0)
            for name in self._names
        )
        #: One view per node, replaced only when the node starts or
        #: finishes a job; policies see ``tuple(self._views)``.
        self._views = list(self._idle_views)
        self._idle = spec.nodes
        self._watts = [0.0] * spec.nodes
        self._index = {name: i for i, name in enumerate(self._names)}
        for name in self._names:
            self.accumulator.note_node(name)
        #: (finish_s, seq, node_idx, job, start_s, time_s, energy_j) —
        #: seq breaks float ties deterministically in placement order,
        #: so the tuple never compares past it.
        self._heap: list[tuple[float, int, int, Job, float, float, float]] = []
        self._seq = 0
        self._events = 0
        self._peak_power_w = 0.0
        self._next_job = None
        self._completed0 = self.accumulator.completed
        self._rejected0 = self.accumulator.rejected_count

    # ------------------------------------------------------------------
    def run_segment(self) -> float:
        """Drain this segment's jobs; returns the drain-time clock."""
        spec = self.spec
        self._next_job = next(self._source, None)
        while self._next_job is not None or self._heap:
            if self.now > self._t0_sim + spec.time_limit_s:
                raise SimulationError(
                    f"analytic run exceeded {spec.time_limit_s} s with "
                    f"{len(self.queue)} queued and "
                    f"{spec.nodes - self._idle} running jobs"
                )
            arrival_t = (
                None
                if self._next_job is None
                else max(self._next_job.submit_s, self._t0_sim)
            )
            # Finishes before arrivals at equal times: the node frees
            # first, so the arriving job can be placed immediately —
            # fixed rule, applied identically on every (re)run.
            if self._heap and (
                arrival_t is None or self._heap[0][0] <= arrival_t
            ):
                self._fire_finish()
            else:
                self._fire_arrival(arrival_t)
            self._dispatch()
        self.accumulator.add_segment(
            peak_power_w=self._peak_power_w,
            peak_queue_depth=self.queue.peak_depth,
            coordinator_rounds=0,
            engine_events=self._events,
        )
        self._observe_segment()
        return self.now

    def _observe_segment(self) -> None:
        """Fold this segment's dispatch/shed counts and close its span."""
        completed = self.accumulator.completed - self._completed0
        shed = self.accumulator.rejected_count - self._rejected0
        if self._counters is not None:
            # A segment drains, so every job it dispatched completed.
            dispatched, rejected = self._counters
            dispatched.inc(float(completed), policy=self.spec.policy)
            rejected.inc(float(shed))
        if self._span is not None:
            self.tracer.finish(self._span, at=self.now,
                               completed=completed, shed=shed)

    # ------------------------------------------------------------------
    def _fire_finish(self) -> None:
        finish_t, _seq, idx, job, start_s, time_s, energy_j = heapq.heappop(
            self._heap
        )
        self.now = finish_t
        self._events += 1
        watts = self._watts[idx]
        self._watts[idx] = 0.0
        self._views[idx] = self._idle_views[idx]
        self._idle += 1
        node = self._names[idx]
        self.accumulator.add(
            node, job.submit_s, start_s, finish_t, time_s, energy_j
        )
        if self.spec.retain_jobs:
            self.records.append(JobRecord(
                index=job.index,
                app=job.app,
                threads=job.threads,
                node=node,
                submit_s=job.submit_s,
                start_s=start_s,
                finish_s=finish_t,
                time_s=time_s,
                energy_j=energy_j,
                avg_watts=watts,
            ))

    def _fire_arrival(self, arrival_t: float) -> None:
        job = self._next_job
        self._next_job = next(self._source, None)
        self.now = max(self.now, arrival_t)
        self._events += 1
        if not self.queue.offer(job):
            self.accumulator.add_rejection(job.index)

    def _dispatch(self) -> None:
        # Only idle nodes may be chosen, so every policy holds while all
        # nodes are busy: skip the call until a finish frees one.  The
        # snapshots are built with ``tuple.__new__`` (field order as
        # declared), which skips the ``NamedTuple`` keyword constructor.
        queued = self.queue._jobs
        while self._idle and queued:
            state = tuple.__new__(ClusterState, (
                self.now, self.spec.budget_w, sum(self._watts),
            ))
            pick = self.policy.select(
                self.queue.jobs, tuple(self._views), state
            )
            if pick is None:
                return
            position, node_name = pick
            idx = self._index.get(node_name)
            if idx is None or self._views[idx].busy:
                raise SimulationError(
                    f"policy {self.spec.policy!r} chose "
                    f"{'unknown' if idx is None else 'busy'} node "
                    f"{node_name!r}"
                )
            job = self.queue.take(position)
            # ``job_cost`` and ``RooflinePoint.avg_watts``, without
            # building the scaled point.
            unit = _paper_point(job.app, job.threads, job.compiler,
                                job.optlevel)
            time_s = unit.time_s * job.scale
            energy_j = unit.energy_j * job.scale
            watts = energy_j / time_s if time_s > 0 else 0.0
            self._watts[idx] = watts
            self._views[idx] = tuple.__new__(NodeView, (
                node_name, True, self._node_budget_w, watts, 0.0,
            ))
            self._idle -= 1
            heapq.heappush(self._heap, (
                self.now + time_s, self._seq, idx, job, self.now, time_s,
                energy_j,
            ))
            self._seq += 1
            power = sum(self._watts) + NODE_FLOOR_W * self._idle
            if power > self._peak_power_w:
                self._peak_power_w = power


def run_analytic(
    spec: "SchedSpec",
    *,
    bus: Optional[TelemetryBus] = None,
    checkpoint_dir=None,
    registry=None,
    tracer=None,
) -> SchedResult:
    """Run a spec analytically (segmented when ``segment_jobs`` is set)."""
    from repro.sched.checkpoint import run_segmented
    from repro.sched.cluster import build_result, emit_finished

    if spec.segment_jobs:
        return run_segmented(spec, bus=bus, checkpoint_dir=checkpoint_dir,
                             registry=registry, tracer=tracer)
    bus = bus if bus is not None else TelemetryBus()
    t0 = time.perf_counter()
    sim = AnalyticSim(spec, bus=bus, registry=registry, tracer=tracer)
    sim.run_segment()
    sim.accumulator.add_violations(
        roofline_envelope(spec, sim.accumulator.snapshot())
    )
    result = build_result(
        spec, sim.accumulator, sim.records, wall_s=time.perf_counter() - t0
    )
    emit_finished(bus, spec, result)
    return result
