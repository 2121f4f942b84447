"""The global power coordinator and the cluster run harness.

Every coordination period the :class:`PowerCoordinator` reads each node's
measured power and clamp state and re-divides the global budget:

* every node keeps a guaranteed floor (enough for its idle draw plus one
  active core — a starved node could otherwise never finish);
* the remaining budget is split proportionally to *demand*: a node whose
  clamp is actively shedding threads bids its current budget times a
  growth factor; an unconstrained node bids its measured power.

This is deliberately simple water-filling — the point of the extension is
the *interface* the paper's conclusion calls for (per-node parallelism
control + energy monitoring feeding a cross-node tool), not a scheduling
contribution of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.node_sim import ClusterNode
from repro.errors import SimulationError
from repro.measure.report import MeasurementRow, format_measurement_table
from repro.sim.engine import Engine
from repro.sim.events import Priority

#: Guaranteed per-node power floor, W (idle draw ~47 W plus headroom for
#: at least one active core).
NODE_FLOOR_W = 60.0

#: Bid growth for nodes whose clamp is shedding threads.
DEMAND_GROWTH = 1.25


@dataclass
class CoordinatorSample:
    """One coordination round's view of the cluster."""

    time_s: float
    node_power_w: dict[str, float]
    budgets_w: dict[str, float]
    #: Per-node clamp state at sample time: the active thread limit and
    #: the floor it cannot shed below.  The budget-enforcement invariant
    #: needs these — a node already at its floor is doing all it can, so
    #: staying over budget there is workload physics, not a clamp bug.
    clamp_limits: dict[str, int] = field(default_factory=dict)
    clamp_floors: dict[str, int] = field(default_factory=dict)

    @property
    def total_power_w(self) -> float:
        return sum(self.node_power_w.values())

    def shed_room(self, name: str) -> bool:
        """True when ``name``'s clamp could still shed threads."""
        limit = self.clamp_limits.get(name)
        floor = self.clamp_floors.get(name)
        if limit is None or floor is None:
            return False
        return limit > floor


class PowerCoordinator:
    """Re-divides a global power budget across nodes each period."""

    def __init__(
        self,
        engine: Engine,
        nodes: Sequence[ClusterNode],
        global_budget_w: float,
        *,
        period_s: float = 1.0,
    ) -> None:
        if not nodes:
            raise SimulationError("a cluster needs at least one node")
        # A zero, negative or NaN period would reschedule the tick at the
        # same instant forever, so sim time could never reach a deadline.
        if not 0.0 < period_s < math.inf:
            raise SimulationError(
                f"coordination period must be a finite positive number of "
                f"seconds, got {period_s!r}"
            )
        if global_budget_w < NODE_FLOOR_W * len(nodes):
            raise SimulationError(
                f"global budget {global_budget_w} W cannot cover the "
                f"{NODE_FLOOR_W} W floor of {len(nodes)} nodes"
            )
        self.engine = engine
        self.nodes = list(nodes)
        self.global_budget_w = global_budget_w
        self.period_s = period_s
        self.samples: list[CoordinatorSample] = []
        self._running = False
        self._next_event = None
        self._rebalance()  # initial even split by demand floor

    def start(self) -> None:
        if self._running:
            raise SimulationError("coordinator already running")
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def _schedule_next(self) -> None:
        self._next_event = self.engine.schedule(
            self.period_s, self._tick, priority=Priority.DAEMON,
            label="coordinator-tick",
        )

    def _tick(self) -> None:
        if not self._running:
            return
        self._rebalance()
        self._schedule_next()

    def _rebalance(self) -> None:
        bids: dict[str, float] = {}
        powers: dict[str, float] = {}
        for node in self.nodes:
            power = node.measured_power_w
            powers[node.name] = power
            if node.done:
                bids[node.name] = NODE_FLOOR_W
            elif node.wants_more_power:
                bids[node.name] = max(power, node.clamp.budget_w) * DEMAND_GROWTH
            else:
                bids[node.name] = max(power, NODE_FLOOR_W)
        # Floors first, then split the remainder proportionally to bids.
        budgets = {name: NODE_FLOOR_W for name in bids}
        spare = self.global_budget_w - NODE_FLOOR_W * len(self.nodes)
        bid_total = sum(bids.values())
        if bid_total > 0:
            for name, bid in bids.items():
                budgets[name] += spare * bid / bid_total
        # The proportional shares can overshoot the global budget by a few
        # ulps (sum of bid/bid_total rounds above 1).  Shave the overshoot
        # off the largest assignment so the cluster-budget invariant —
        # sum(budgets) <= global, exactly — holds by construction.  Each
        # pass strictly shrinks the excess; two suffice in practice.
        for _ in range(4):
            total = sum(budgets.values())
            if total <= self.global_budget_w:
                break
            largest = max(budgets, key=lambda name: (budgets[name], name))
            budgets[largest] -= total - self.global_budget_w
        for node in self.nodes:
            node.clamp.set_budget(budgets[node.name])
        self.samples.append(
            CoordinatorSample(
                time_s=self.engine.now,
                node_power_w=powers,
                budgets_w=budgets,
                clamp_limits={
                    node.name: node.clamp.active_limit for node in self.nodes
                },
                clamp_floors={
                    node.name: node.clamp.min_threads for node in self.nodes
                },
            )
        )

    @property
    def peak_cluster_power_w(self) -> float:
        """Highest total measured power across coordination rounds."""
        if not self.samples:
            return 0.0
        return max(sample.total_power_w for sample in self.samples)


@dataclass
class ClusterResult:
    """Outcome of one coordinated cluster run."""

    rows: list[MeasurementRow]
    peak_power_w: float
    global_budget_w: float
    samples: list[CoordinatorSample] = field(default_factory=list)

    def format(self) -> str:
        table = format_measurement_table(
            self.rows, title="Cluster run (per-node time/energy/power)"
        )
        return (
            f"{table}\n"
            f"peak coordinated cluster power: {self.peak_power_w:.1f} W "
            f"(global budget {self.global_budget_w:.1f} W)"
        )


def run_cluster(
    workloads: Sequence[tuple[str, str]],
    global_budget_w: float,
    *,
    threads: int = 16,
    period_s: float = 1.0,
    time_limit_s: float = 500.0,
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> ClusterResult:
    """Run ``(app, compiler)`` workloads, one per node, under one budget.

    Returns per-node measurement rows plus the coordinated power trace.
    ``engine`` lets callers supply (and keep a handle on) the shared
    event engine; tests use it to assert teardown leaves no timers behind.
    """
    from repro.sched.workload import Job  # repro.sched imports this package

    engine = engine if engine is not None else Engine()
    nodes = [
        ClusterNode(
            f"node{i}",
            engine,
            budget_w=global_budget_w / len(workloads),
            threads=threads,
            seed=seed + i,
        )
        for i in range(len(workloads))
    ]
    coordinator = PowerCoordinator(engine, nodes, global_budget_w, period_s=period_s)
    rows: dict[str, MeasurementRow] = {}

    def on_finish(node, job, _start_s, report) -> None:
        rows[node.name] = MeasurementRow(
            label=f"{node.name}:{job.app}",
            time_s=report.elapsed_s,
            energy_j=report.energy_j,
            avg_watts=report.avg_watts,
        )

    for i, (node, (app, compiler)) in enumerate(zip(nodes, workloads)):
        node.on_finish = on_finish
        node.start_job(Job(
            index=i, submit_s=engine.now, app=app, threads=threads, scale=1.0,
            compiler=compiler,
            optlevel="O3" if compiler == "maestro" else "O2",
        ))
    coordinator.start()

    # Daemons tick forever, so drive the engine in slices until every
    # node's job has completed.  The coordinator and per-node
    # daemons/clamps hold repeating engine timers; a timeout (or any
    # other exception from the drive loop) must still cancel them, or
    # the events leak into any later use of the engine.
    try:
        while not all(node.done for node in nodes):
            if engine.now > time_limit_s:
                unfinished = [n.name for n in nodes if not n.done]
                raise SimulationError(
                    f"cluster run exceeded {time_limit_s} s; unfinished: {unfinished}"
                )
            engine.run(until=engine.now + period_s)
    finally:
        coordinator.stop()
        for node in nodes:
            node.shutdown()
    return ClusterResult(
        rows=[rows[node.name] for node in nodes],
        peak_power_w=coordinator.peak_cluster_power_w,
        global_budget_w=global_budget_w,
        samples=coordinator.samples,
    )
