"""Pluggable placement policies for the energy-aware cluster scheduler.

A policy sees an immutable snapshot of the cluster — the queued jobs and
a :class:`NodeView` per node (busy/idle, current power budget, measured
power, clamp pressure) — and answers one question: *which queued job goes
on which idle node right now, if any?*  Returning ``None`` means "hold":
leave the queue as it is until the next scheduling tick.

The four shipped policies span the design space the paper's conclusion
gestures at (per-node parallelism control plus energy monitoring feeding
a cross-node tool):

* ``fcfs``      — first come, first served onto the first idle node;
  the baseline every scheduling study needs.
* ``bestfit``   — FCFS job order, but picks the idle node whose *power
  headroom* (budget − measured) most tightly fits the job's estimated
  draw: packs power like best-fit bin packing packs bytes.
* ``edp``       — greedy on estimated energy-delay product: may reorder
  the queue to run the job with the lowest estimated EDP first
  (shortest-job-first's energy-aware cousin).
* ``waterfill`` — power-aware water-filling: defers placement while the
  cluster's measured power plus the job's marginal estimate would exceed
  the global budget, and prefers the node with the *lowest* clamp
  pressure, so jobs land where the coordinator's re-division has spare
  watts rather than where the clamp is already shedding threads.

All heuristic estimates are deliberately crude (watts proportional to
requested threads): the scheduler's job is to make *placement* decisions
from *measured* feedback, not to be an oracle — the clamp and
coordinator correct whatever the estimate gets wrong.

The fifth policy breaks that rule on purpose:

* ``predicted`` — interference-aware placement driven by a
  :class:`~repro.cosched.predictor.PredictorModel` fitted from co-run
  profiles (:mod:`repro.experiments.coschedsweep`).  It orders the queue
  by *calibrated* predicted EDP (measured solo costs, not the crude
  closed form), holds against the global budget using predicted watts,
  and steers sensitive jobs away from clamp-pressured nodes.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Callable,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
)

from repro.config import PAPER_MACHINE
from repro.errors import ConfigError
from repro.sched.workload import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cosched.predictor import PredictorModel

#: Estimated marginal draw per active thread, W.  Calibrated loosely
#: against the single-node stack (a 16-thread hot loop draws ~100 W over
#: idle); precision is unnecessary — see the module docstring.
_WATTS_PER_THREAD = 6.5

#: One idle node's draw (uncore plus parked cores, both sockets) — what
#: the ``predicted`` policy subtracts to turn its *absolute* calibrated
#: watts into the *marginal* draw the budget arithmetic expects.
_NODE_IDLE_W = PAPER_MACHINE.sockets * (
    PAPER_MACHINE.power.uncore_w
    + PAPER_MACHINE.cores_per_socket * PAPER_MACHINE.power.core_idle_w
)


def estimate_job_power_w(threads: int) -> float:
    """Estimated marginal node power while a job runs, W (above idle)."""
    return threads * _WATTS_PER_THREAD


class NodeView(NamedTuple):
    """Immutable per-node snapshot handed to policies.

    Tuple-backed: the analytic loop builds one per placement, and a
    ``NamedTuple`` constructs and reads fields at tuple speed.
    """

    name: str
    busy: bool
    budget_w: float
    measured_power_w: float
    #: Fraction of threads the node's clamp is shedding (0.0 = passive).
    clamp_pressure: float

    @property
    def headroom_w(self) -> float:
        """Power the node could draw before hitting its budget."""
        return max(0.0, self.budget_w - self.measured_power_w)


class ClusterState(NamedTuple):
    """Cluster-wide snapshot for budget-aware policies (tuple-backed,
    built once per placement like :class:`NodeView`)."""

    time_s: float
    global_budget_w: float
    total_power_w: float

    @property
    def global_headroom_w(self) -> float:
        return max(0.0, self.global_budget_w - self.total_power_w)


class PlacementPolicy(Protocol):
    """The policy contract: pick ``(queue position, node name)`` or hold.

    ``queue`` is in FCFS order; policies that honour arrival order must
    return position 0.  Only idle nodes may be chosen.  Implementations
    must be pure functions of their arguments — the scheduler snapshots
    state each tick precisely so policies cannot reach into live objects
    and break determinism.
    """

    def select(
        self,
        queue: Sequence[Job],
        nodes: Sequence[NodeView],
        state: ClusterState,
    ) -> Optional[tuple[int, str]]: ...


def _idle(nodes: Sequence[NodeView]) -> list[NodeView]:
    return [n for n in nodes if not n.busy]


class FcfsFirstFit:
    """Head-of-queue job onto the first idle node, no power awareness."""

    name = "fcfs"

    def select(self, queue, nodes, state):
        idle = _idle(nodes)
        if not queue or not idle:
            return None
        return 0, idle[0].name


class BestFitPower:
    """Head-of-queue job onto the idle node with the tightest headroom fit.

    Among idle nodes whose headroom covers the job's estimated draw, pick
    the smallest such headroom (classic best-fit, applied to watts); if
    none covers it, fall back to the largest headroom — the clamp will
    shed threads rather than let the node overshoot, so placement is
    always safe, just slower.
    """

    name = "bestfit"

    def select(self, queue, nodes, state):
        idle = _idle(nodes)
        if not queue or not idle:
            return None
        need = estimate_job_power_w(queue[0].threads)
        fitting = [n for n in idle if n.headroom_w >= need]
        if fitting:
            chosen = min(fitting, key=lambda n: (n.headroom_w, n.name))
        else:
            chosen = max(idle, key=lambda n: (n.headroom_w, n.name))
        return 0, chosen.name


class EdpGreedy:
    """Run the queued job with the lowest estimated energy-delay product.

    Service time is estimated as work/threads (perfect scaling — crude on
    purpose), energy as estimated power × time, so
    EDP ∝ scale² · _WATTS_PER_THREAD / threads: small jobs with high
    thread counts jump the queue.  The chosen job goes to the idle node
    with the most headroom, since the job picked for speed deserves the
    watts to achieve it.
    """

    name = "edp"

    def select(self, queue, nodes, state):
        idle = _idle(nodes)
        if not queue or not idle:
            return None

        def edp(job: Job) -> tuple[float, int]:
            est_time = job.scale / max(1, job.threads)
            est_energy = estimate_job_power_w(job.threads) * est_time
            return est_energy * est_time, job.index

        pos = min(range(len(queue)), key=lambda i: edp(queue[i]))
        chosen = max(idle, key=lambda n: (n.headroom_w, n.name))
        return pos, chosen.name


class WaterfillPowerAware:
    """Power-aware water-filling against the *global* budget.

    Defers the head-of-queue job while the cluster's measured power plus
    the job's estimated marginal draw would exceed the global budget —
    unless every node is idle, in which case it places anyway: an empty
    cluster must never deadlock on an estimate that exceeds achievable
    headroom (the clamp enforces the real bound).  When it does place, it
    prefers the idle node with the lowest clamp pressure (ties: most
    headroom), i.e. where the coordinator's re-division left spare watts.
    """

    name = "waterfill"

    def select(self, queue, nodes, state):
        idle = _idle(nodes)
        if not queue or not idle:
            return None
        need = estimate_job_power_w(queue[0].threads)
        any_busy = len(idle) < len(nodes)
        if any_busy and state.total_power_w + need > state.global_budget_w:
            return None  # hold until running jobs free up watts
        chosen = min(
            idle, key=lambda n: (n.clamp_pressure, -n.headroom_w, n.name)
        )
        return 0, chosen.name


class PredictedPlacement:
    """Interference-aware placement from fitted co-run profiles.

    Job order: lowest *predicted* EDP first, where time and power come
    from the predictor's calibrated solo entries and the time is
    inflated by the job's fitted contention sensitivity times the
    cluster's current power-pressure (how hard the coordinator's clamp
    is squeezing).  Budget hold mirrors ``waterfill`` but with the
    predicted watts instead of the threads heuristic.  Node choice
    weights each node's clamp pressure by the job's sensitivity — a
    contention-immune job can soak a pressured node, a sensitive one is
    steered to headroom.
    """

    name = "predicted"

    def __init__(self, model: "Optional[PredictorModel]" = None) -> None:
        self._model = model
        #: (app, threads) -> (unit time, sensitivity slope, absolute
        #: watts, marginal watts); the model is frozen, so each key is
        #: resolved once per policy instead of on every select.
        self._coeffs: dict[tuple[str, int],
                           tuple[float, float, float, float]] = {}

    @property
    def model(self) -> "PredictorModel":
        if self._model is None:
            from repro.cosched.predictor import default_model

            self._model = default_model()
        return self._model

    def _coefficients(
        self, app: str, threads: int
    ) -> tuple[float, float, float, float]:
        entry = self.model.resolve(app, threads)
        # Calibrated watts are absolute node draw; the cluster's measured
        # total already contains every node's idle floor, so the budget
        # hold uses the *marginal* draw this job adds.
        coeffs = (entry.unit_time_s, entry.sens_slope, entry.watts,
                  max(0.0, entry.watts - _NODE_IDLE_W))
        self._coeffs[app, threads] = coeffs
        return coeffs

    def select(self, queue, nodes, state):
        idle = _idle(nodes)
        if not queue or not idle:
            return None
        memo = self._coeffs
        pos, job = 0, queue[0]
        coeffs = (memo.get((job.app, job.threads))
                  or self._coefficients(job.app, job.threads))
        if len(queue) > 1:
            # Lowest predicted EDP first, ties to the lower job index:
            # ``PredictorModel.predict_edp`` bit for bit, with the
            # cluster's budget utilisation as the pressure.
            budget = state.global_budget_w
            pressure = (max(0.0, min(1.0, state.total_power_w / budget))
                        if budget > 0 else 0.0)
            best = math.inf
            for i, candidate in enumerate(queue):
                c = (memo.get((candidate.app, candidate.threads))
                     or self._coefficients(candidate.app, candidate.threads))
                t = c[0] * candidate.scale * (1.0 + c[1] * pressure)
                edp = c[2] * t * t
                if edp < best or (edp == best and candidate.index < job.index):
                    pos, best, job, coeffs = i, edp, candidate, c
        _unit, sensitivity, _watts, need = coeffs
        any_busy = len(idle) < len(nodes)
        if any_busy and state.total_power_w + need > state.global_budget_w:
            return None  # hold until running jobs free up watts
        if len(idle) == 1:
            return pos, idle[0].name
        chosen = min(
            idle,
            key=lambda n: (
                n.clamp_pressure * sensitivity,
                -n.headroom_w,
                n.name,
            ),
        )
        return pos, chosen.name


#: Policy name -> factory (the registry the CLI and spec resolve from).
POLICIES: dict[str, Callable[..., PlacementPolicy]] = {
    FcfsFirstFit.name: FcfsFirstFit,
    BestFitPower.name: BestFitPower,
    EdpGreedy.name: EdpGreedy,
    WaterfillPowerAware.name: WaterfillPowerAware,
    PredictedPlacement.name: PredictedPlacement,
}


def make_policy(
    name: str, *, model: "Optional[PredictorModel]" = None
) -> PlacementPolicy:
    """Instantiate a registered placement policy by name.

    ``model`` customises the ``predicted`` policy's predictor (it is an
    error for any other policy); omitted, ``predicted`` falls back to
    the bundled default model.
    """
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown placement policy {name!r}; "
            f"one of {', '.join(sorted(POLICIES))}"
        ) from None
    if name == PredictedPlacement.name:
        return factory(model)
    if model is not None:
        raise ConfigError(
            f"policy {name!r} does not take a predictor model "
            f"(only 'predicted' does)"
        )
    return factory()
