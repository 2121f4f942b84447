"""The multi-node scheduled cluster simulation.

One shared discrete-event engine carries N
:class:`~repro.cluster.node_sim.ClusterNode` stacks (each the full
single-node pipeline: simulated hardware, qthreads runtime, RCRdaemon,
region client, power clamp, running its jobs in sequence), the existing
:class:`~repro.cluster.coordinator.PowerCoordinator` re-dividing the
global budget, and the scheduler itself: trace arrivals feed a bounded
:class:`~repro.sched.queue.AdmissionQueue`, and a repeating scheduling
tick snapshots the cluster and asks the placement policy where queued
jobs should run.

Arrivals are *streamed*: the trace is pulled lazily from
:func:`~repro.sched.workload.iter_trace` and at most
:data:`ARRIVAL_WINDOW` arrival events are in the engine at once — each
arrival that fires schedules the next job from the iterator, so a
million-job trace never materializes.  Finished jobs fold into a
:class:`~repro.sched.aggregate.SchedAccumulator` as they complete;
per-job :class:`~repro.sched.result.JobRecord` tuples are kept only
when the spec's ``retain_jobs`` flag says so.

A :class:`ClusterSim` can also run a *segment* of a trace (``start`` +
``limit``) against carried accumulator state: the checkpoint/resume
runner in :mod:`repro.sched.checkpoint` drives one fresh sim per
segment, draining between segments, which is what makes kill-and-resume
bit-identical to an uninterrupted segmented run.

Teardown mirrors the hardened ``run_cluster`` contract: the coordinator,
the scheduling tick and every node's clamp/daemon timers are cancelled
in a ``finally``, so even a timed-out run leaves no repeating events in
the engine.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError
from repro.harness import telemetry as tel
from repro.harness.telemetry import TelemetryBus
from repro.rcr import RegionReport
from repro.sched.aggregate import SchedAccumulator
from repro.sched.policy import (
    ClusterState,
    NodeView,
    PlacementPolicy,
    make_policy,
)
from repro.sched.queue import AdmissionQueue
from repro.sched.result import JobRecord, SchedResult
from repro.sched.workload import Job, iter_trace
from repro.sim.engine import Engine
from repro.sim.events import Priority

from repro.cluster import ClusterNode, PowerCoordinator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.spec import SchedSpec

#: Bounded arrival lookahead: at most this many not-yet-fired arrival
#: events live in the engine at once; each arrival that fires pulls the
#: next job off the lazy trace iterator.  The window only bounds memory
#: — arrival *times* come from the trace, so any value >= 1 produces the
#: identical simulation.
ARRIVAL_WINDOW = 64


def build_result(
    spec: "SchedSpec",
    accumulator: SchedAccumulator,
    records: list[JobRecord],
    *,
    wall_s: float = 0.0,
) -> SchedResult:
    """Assemble the frozen :class:`SchedResult` from streaming state.

    Shared by the single-segment, checkpointed and analytic runners so
    every path produces structurally identical results.
    """
    stats = accumulator.snapshot()
    return SchedResult(
        spec=spec,
        jobs=tuple(sorted(records, key=lambda r: r.index)),
        rejected=tuple(accumulator.rejected_indices),
        makespan_s=stats.makespan_s,
        peak_power_w=stats.peak_power_w,
        jobs_per_node=dict(stats.jobs_per_node),
        coordinator_rounds=stats.coordinator_rounds,
        engine_events=stats.engine_events,
        peak_queue_depth=stats.peak_queue_depth,
        budget_violations=tuple(accumulator.violations),
        stats=stats,
        wall_s=wall_s,
    )


def emit_finished(
    bus: TelemetryBus, spec: "SchedSpec", result: SchedResult
) -> None:
    """Emit the run-complete telemetry event (one per logical run)."""
    bus.emit(tel.SchedFinished(
        policy=spec.policy, profile=spec.profile,
        submitted=result.submitted, completed=result.completed,
        rejected=result.rejected_count, makespan_s=result.makespan_s,
        peak_power_w=result.peak_power_w, budget_w=spec.budget_w,
    ))


def sched_counters(registry, policy: str) -> tuple:
    """Declare the scheduler's lifecycle counters in ``registry``.

    Returns ``(dispatched, shed)``, each with its ``policy`` series
    present at zero.  The full path bumps them per job through the
    telemetry fold; the analytic path adds a segment's counts at once.
    """
    dispatched = registry.counter(
        "sched_jobs_dispatched_total",
        "Jobs placed onto nodes, by policy.", labels=("policy",))
    dispatched.inc(0.0, policy=policy)
    shed = registry.counter(
        "sched_jobs_shed_total",
        "Arrivals rejected by the full admission queue.")
    shed.inc(0.0)
    return dispatched, shed


class ClusterSim:
    """Drives one scheduled run (or one segment of one): trace in,
    accumulator folds out, :class:`SchedResult` on :meth:`run`."""

    def __init__(
        self,
        spec: "SchedSpec",
        *,
        bus: Optional[TelemetryBus] = None,
        engine: Optional[Engine] = None,
        start: int = 0,
        limit: Optional[int] = None,
        accumulator: Optional[SchedAccumulator] = None,
        records: Optional[list[JobRecord]] = None,
        registry=None,
        tracer=None,
    ) -> None:
        self.spec = spec
        self.bus = bus if bus is not None else TelemetryBus()
        #: Optional observability hooks (duck-typed ``repro.obs``
        #: objects; this module never imports the package).  Metrics use
        #: wall clocks only for the policy's own compute time; *span
        #: timestamps are sim-time* (explicit ``at=engine.now``), so a
        #: Chrome trace of a campaign shows the simulated timeline and
        #: enabling tracing cannot perturb the physics.
        self.tracer = tracer
        self._emit = tel.Emitter(self.bus, registry)
        self._m_select = self._m_clamp = None
        if registry is not None:
            sched_counters(registry, spec.policy)
            self._m_select = registry.histogram(
                "sched_policy_select_seconds",
                "Wall seconds per placement-policy select() call.",
                labels=("policy",))
            self._m_clamp = registry.counter(
                "sched_clamp_rounds_total",
                "Coordinator rounds with at least one node clamped "
                "below its full thread count.")
            self._m_clamp.inc(0.0)
        self._job_spans: dict[str, object] = {}
        self.engine = engine if engine is not None else Engine()
        self.policy: PlacementPolicy = make_policy(spec.policy, model=spec.predictor)
        if limit is None:
            limit = spec.jobs - start
        self._segment_jobs = limit
        #: Lazy source of this segment's jobs; never materialized.
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
        self.queue = AdmissionQueue(spec.queue_depth)
        self.nodes = [
            ClusterNode(
                f"node{i}",
                self.engine,
                budget_w=spec.budget_w / spec.nodes,
                threads=spec.node_threads,
                seed=spec.seed + i,
            )
            for i in range(spec.nodes)
        ]
        for node in self.nodes:
            self.accumulator.note_node(node.name)
        self.coordinator = PowerCoordinator(
            self.engine,
            self.nodes,
            spec.budget_w,
            period_s=spec.coordinator_period_s,
        )
        self._scheduled = 0
        self._arrived = 0
        self._tick_event = None
        #: Segment start clock; the time limit is relative to it.
        self._t0_sim = self.engine.now
        for node in self.nodes:
            node.on_finish = self._job_finished

    # ------------------------------------------------------------------
    def run(self) -> SchedResult:
        """Execute this sim's whole job range and build the result."""
        t0 = time.perf_counter()
        self.run_segment()
        result = build_result(
            self.spec,
            self.accumulator,
            self.records,
            wall_s=time.perf_counter() - t0,
        )
        emit_finished(self.bus, self.spec, result)
        return result

    def run_segment(self) -> float:
        """Drive this segment to drain; returns the drain-time clock.

        Folds the segment's run-level aggregates (peak power, queue
        depth, coordinator rounds, engine events, budget violations)
        into the accumulator; always tears the timers down.
        """
        spec = self.spec
        self._prime_arrivals()
        self.coordinator.start()
        self._schedule_tick()
        try:
            while not self._finished():
                if self.engine.now > self._t0_sim + spec.time_limit_s:
                    raise SimulationError(
                        f"scheduled run exceeded {spec.time_limit_s} s with "
                        f"{len(self.queue)} queued and "
                        f"{sum(1 for n in self.nodes if n.busy)} running jobs"
                    )
                self.engine.run(until=self.engine.now + spec.period_s)
        finally:
            self.coordinator.stop()
            if self._tick_event is not None:
                self._tick_event.cancel()
                self._tick_event = None
            for node in self.nodes:
                node.shutdown()

        from repro.validate.cluster import check_cluster_budgets

        self.accumulator.add_violations(
            check_cluster_budgets(
                self.coordinator.samples, spec.budget_w, nodes=len(self.nodes)
            )
        )
        if self._m_clamp is not None:
            for sample in self.coordinator.samples:
                if any(limit < spec.node_threads
                       for limit in sample.clamp_limits.values()):
                    self._m_clamp.inc()
        self.accumulator.add_segment(
            peak_power_w=self.coordinator.peak_cluster_power_w,
            peak_queue_depth=self.queue.peak_depth,
            coordinator_rounds=len(self.coordinator.samples),
            engine_events=self.engine.fired,
        )
        return self.engine.now

    # ------------------------------------------------------------------
    def _finished(self) -> bool:
        return (
            self._arrived == self._segment_jobs
            and len(self.queue) == 0
            and all(not node.busy for node in self.nodes)
        )

    def _prime_arrivals(self) -> None:
        """Top the arrival window back up from the lazy trace source.

        A resumed segment's first arrivals may carry submit times earlier
        than the carried clock (the previous segment drained past them);
        they fire immediately at the current clock, identically in the
        uninterrupted and resumed executions of the same spec.
        """
        while (
            self._scheduled - self._arrived < ARRIVAL_WINDOW
            and self._scheduled < self._segment_jobs
        ):
            job = next(self._source)
            self.engine.schedule_at(
                max(job.submit_s, self.engine.now),
                self._arrival(job),
                label=f"arrive-j{job.index}",
            )
            self._scheduled += 1

    def _arrival(self, job: Job):
        def fire() -> None:
            self._arrived += 1
            self._prime_arrivals()
            self._emit(tel.JobSubmitted(
                index=job.index, app=job.app, threads=job.threads,
                time_s=self.engine.now,
            ))
            if not self.queue.offer(job):
                self.accumulator.add_rejection(job.index)
                self._emit(tel.JobRejected(
                    index=job.index, app=job.app,
                    queue_depth=self.queue.depth, time_s=self.engine.now,
                ))
                return
            # Let the policy react to the arrival immediately rather than
            # waiting out the rest of the scheduling period.
            self._dispatch()
        return fire

    def _job_finished(
        self, node: ClusterNode, job: Job, start_s: float, report: RegionReport
    ) -> None:
        record = JobRecord(
            index=job.index,
            app=job.app,
            threads=job.threads,
            node=node.name,
            submit_s=job.submit_s,
            start_s=start_s,
            finish_s=self.engine.now,
            time_s=report.elapsed_s,
            energy_j=report.energy_j,
            avg_watts=report.avg_watts,
        )
        if self.tracer is not None:
            span = self._job_spans.pop(node.name, None)
            if span is not None:
                self.tracer.finish(span, at=self.engine.now,
                                   energy_j=record.energy_j)
        self.accumulator.add_job(record)
        if self.spec.retain_jobs:
            self.records.append(record)
        self._emit(tel.SchedJobFinished(
            index=record.index, app=record.app, node=node.name,
            service_s=record.time_s, energy_j=record.energy_j,
            watts=record.avg_watts, time_s=self.engine.now,
        ))
        # A node just went idle: give the policy first refusal before the
        # next periodic tick.
        self._dispatch()

    def _schedule_tick(self) -> None:
        self._tick_event = self.engine.schedule(
            self.spec.period_s, self._tick, priority=Priority.DAEMON,
            label="sched-tick",
        )

    def _tick(self) -> None:
        self._dispatch()
        self._schedule_tick()

    def _snapshot(self) -> tuple[list[NodeView], ClusterState]:
        views = [
            NodeView(
                name=node.name,
                busy=node.busy,
                budget_w=node.clamp.budget_w,
                measured_power_w=node.measured_power_w,
                clamp_pressure=node.clamp.pressure,
            )
            for node in self.nodes
        ]
        total = sum(v.measured_power_w for v in views)
        state = ClusterState(
            time_s=self.engine.now,
            global_budget_w=self.spec.budget_w,
            total_power_w=total,
        )
        return views, state

    def _dispatch(self) -> None:
        """Ask the policy for placements until it holds or runs dry."""
        by_name = {node.name: node for node in self.nodes}
        while len(self.queue) > 0:
            views, state = self._snapshot()
            if self._m_select is not None:
                t0 = time.perf_counter()
                pick = self.policy.select(self.queue.jobs, views, state)
                self._m_select.observe(time.perf_counter() - t0,
                                       policy=self.spec.policy)
            else:
                pick = self.policy.select(self.queue.jobs, views, state)
            if pick is None:
                return
            position, node_name = pick
            node = by_name.get(node_name)
            if node is None or node.busy:
                raise SimulationError(
                    f"policy {self.spec.policy!r} chose "
                    f"{'unknown' if node is None else 'busy'} node "
                    f"{node_name!r}"
                )
            job = self.queue.take(position)
            node.start_job(job)
            if self.tracer is not None:
                self._job_spans[node.name] = self.tracer.start(
                    f"{job.app}:j{job.index}", at=self.engine.now,
                    track=node.name, threads=job.threads,
                    policy=self.spec.policy,
                    wait_s=self.engine.now - job.submit_s)
            self._emit(tel.JobPlaced(
                index=job.index, app=job.app, node=node.name,
                policy=self.spec.policy,
                wait_s=self.engine.now - job.submit_s,
                time_s=self.engine.now,
            ))


def run_sched(
    spec: "SchedSpec",
    *,
    bus: Optional[TelemetryBus] = None,
    engine: Optional[Engine] = None,
    checkpoint_dir=None,
    registry=None,
    tracer=None,
) -> SchedResult:
    """Run a spec via whichever execution path it selects.

    ``checkpoint_dir`` (a path) enables atomic between-segment
    checkpoints and resume for specs with ``segment_jobs`` set; it is an
    execution detail (where on disk), never part of the spec digest.
    ``registry``/``tracer`` attach observability on every path: the
    full simulation counts and traces each job, the analytic path folds
    its counters and records one sim-time span per segment (the policy
    select-latency histogram is full-path only).  Like ``bus``, they are
    execution details that never reach the digest.
    """
    if spec.execution == "analytic":
        from repro.sched.analytic import run_analytic

        return run_analytic(spec, bus=bus, checkpoint_dir=checkpoint_dir,
                            registry=registry, tracer=tracer)
    if spec.segment_jobs:
        from repro.sched.checkpoint import run_segmented

        return run_segmented(spec, bus=bus, checkpoint_dir=checkpoint_dir,
                             registry=registry, tracer=tracer)
    return ClusterSim(spec, bus=bus, engine=engine, registry=registry,
                      tracer=tracer).run()
