"""Power clamping: enforce a node power bound (extension).

The paper's related work (Rountree et al. [25]) examines hardware-enforced
power bounds on Sandybridge and argues HPC is moving from performance
scheduling to *power scheduling*; the paper positions concurrency
throttling as a mechanism that "would operate well within a multi-node
power clamping environment" while noting its own goal is energy reduction,
not bound enforcement.  This module supplies that missing piece:

* :func:`encode_power_limit` / :func:`decode_power_limit` — the
  ``MSR_PKG_POWER_LIMIT`` register format (1/8-W units, enable bit), so
  clamp settings flow through the same MSR path as everything else;
* :class:`PowerClampController` — a feedback controller that keeps the
  node's measured power at or under a budget by adjusting the scheduler's
  active-thread limit each RCR window: over budget ⇒ shed threads; well
  under ⇒ restore them.

Unlike the MAESTRO energy controller, the clamp is *unconditional*: it
acts on power alone, because a bound is a bound — the cost is the
performance of efficient programs, which is exactly the trade-off the
paper's dual-metric policy exists to avoid when the goal is energy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import MeasurementError, SimulationError
from repro.hw.msr import MSR_PKG_POWER_LIMIT
from repro.qthreads.scheduler import Scheduler
from repro.rcr import meters
from repro.rcr.blackboard import Blackboard
from repro.sim.engine import Engine
from repro.sim.events import Priority

#: MSR_PKG_POWER_LIMIT stores the limit in 1/8-W units (bits 14:0) with an
#: enable bit at 15 (architectural PL1 layout, simplified).
_LIMIT_UNIT_W = 0.125
_ENABLE_BIT = 1 << 15
_LIMIT_MASK = 0x7FFF

#: How many of the newest decisions a controller keeps: 25.6 s at the
#: default 0.1 s period, so a clamp that runs for a whole cluster
#: campaign holds a bounded history.
DECISION_HISTORY = 256


def encode_power_limit(watts: float, *, enabled: bool = True) -> int:
    """Encode a per-package power limit for MSR_PKG_POWER_LIMIT."""
    if watts < 0:
        raise ValueError(f"power limit must be non-negative, got {watts!r}")
    raw = min(_LIMIT_MASK, int(round(watts / _LIMIT_UNIT_W)))
    return raw | (_ENABLE_BIT if enabled else 0)


def decode_power_limit(raw: int) -> tuple[float, bool]:
    """Decode MSR_PKG_POWER_LIMIT into (watts, enabled)."""
    if raw < 0:
        raise ValueError(f"register value must be non-negative, got {raw!r}")
    return (raw & _LIMIT_MASK) * _LIMIT_UNIT_W, bool(raw & _ENABLE_BIT)


@dataclass
class ClampDecision:
    """One controller evaluation (the newest are kept for tests/telemetry)."""

    time_s: float
    node_power_w: float
    budget_w: float
    active_limit: int


class PowerClampController:
    """Keep measured node power at or under ``budget_w``.

    Simple additive-increase / multiplicative-ish-decrease on the active
    thread count, evaluated once per RCR window:

    * power > budget          ⇒ shed threads proportionally to the excess;
    * power < 90% of budget   ⇒ restore one thread;
    * otherwise               ⇒ hold.

    The budget is also published to each socket's ``MSR_PKG_POWER_LIMIT``
    (half per socket) so tooling can read the active clamp the same way
    it would on real hardware.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: Scheduler,
        blackboard: Blackboard,
        budget_w: float,
        *,
        period_s: float = 0.1,
        min_threads: int = 1,
    ) -> None:
        if not 0 < period_s < math.inf:
            raise SimulationError(
                f"period must be finite and positive, got {period_s!r}")
        self.engine = engine
        self.scheduler = scheduler
        self.blackboard = blackboard
        self.period_s = period_s
        self.min_threads = max(1, min_threads)
        self.max_threads = len(scheduler.workers)
        self._active_limit = self.max_threads
        self._running = False
        self._next_event = None
        self.decisions: deque[ClampDecision] = deque(maxlen=DECISION_HISTORY)
        self._budget_w = 0.0
        self.set_budget(budget_w)

    # ------------------------------------------------------------------
    @property
    def budget_w(self) -> float:
        return self._budget_w

    def set_budget(self, budget_w: float) -> None:
        """Change the enforced budget (coordinator interface)."""
        if not 0 < budget_w < math.inf:
            raise SimulationError(
                f"power budget must be finite and positive, got {budget_w!r}")
        self._budget_w = budget_w
        node = self.scheduler.node
        per_socket = budget_w / node.config.sockets
        for socket in range(node.config.sockets):
            node.msr.write_package(
                socket,
                MSR_PKG_POWER_LIMIT,
                encode_power_limit(per_socket),
                privileged=True,
            )

    @property
    def active_limit(self) -> int:
        """Threads currently allowed to run."""
        return self._active_limit

    @property
    def pressure(self) -> float:
        """Fraction of the node's threads the clamp is currently shedding.

        0.0 means the clamp is passive (full concurrency available);
        values approaching 1.0 mean the budget is forcing the node down
        to its minimum thread count.  The cluster scheduler's placement
        policies read this as the node's *clamp pressure*.
        """
        if self.max_threads <= 0:
            return 0.0
        return 1.0 - self._active_limit / self.max_threads

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise MeasurementError("power clamp already running")
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def _schedule_next(self) -> None:
        self._next_event = self.engine.schedule(
            self.period_s, self._tick, priority=Priority.DAEMON, label="clamp-tick"
        )

    def _tick(self) -> None:
        if not self._running:
            return
        self.evaluate_once()
        self._schedule_next()

    def evaluate_once(self) -> ClampDecision:
        power = self.blackboard.read_value(meters.NODE_POWER_W, default=0.0)
        limit = self._active_limit
        if power > self._budget_w:
            # Shed in proportion to the overshoot; at least one thread.
            overshoot = power / self._budget_w - 1.0
            shed = max(1, int(round(overshoot * limit)))
            limit = max(self.min_threads, limit - shed)
        elif power < 0.9 * self._budget_w and limit < self.max_threads:
            limit += 1
        if limit != self._active_limit:
            self._active_limit = limit
            if limit >= self.max_threads:
                self.scheduler.release_throttle()
            else:
                self.scheduler.apply_throttle(limit)
        decision = ClampDecision(
            time_s=self.engine.now,
            node_power_w=power,
            budget_w=self._budget_w,
            active_limit=self._active_limit,
        )
        self.decisions.append(decision)
        return decision
