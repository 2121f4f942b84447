"""Runtime physics-invariant sanitizer.

:class:`InvariantChecker` attaches to a running :class:`~repro.sim.engine.Engine`
and :class:`~repro.hw.node.Node` pair through two read-only hooks:

* the node's *sync probe* fires after every integration step with the
  interval ``dt``; the checker mirrors the energy and thermal integrators
  in shadow accumulators using **bit-identical arithmetic** (the same
  ``power * dt`` product; the same :func:`repro.hw.thermal.rc_step`), so
  conservation checks are exact float equality, not tolerance bands;
* the engine's *event probe* fires after every callback returns, when
  the model is in a consistent post-event state, and checks event-queue
  accounting and that the node's deferred once-per-event re-derivation
  has been flushed.

Every ``interval_s`` of simulated time the checker runs the full
invariant battery (see :meth:`InvariantChecker.check_now`).  The checker
never mutates simulator state, never schedules events and never calls a
syncing query API, so a checked run is bit-identical to an unchecked one
— the differential harness (:mod:`repro.validate.runner`) asserts exactly
that.

Violations are recorded once per ``(invariant, socket, core)`` site (a
persistent corruption would otherwise flood the record list) and counted
on every recurrence.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro.hw.core import CoreState
from repro.hw.msr import decode_clock_modulation, is_legal_clock_modulation
from repro.hw.power import reference_socket_power_w
from repro.hw.rapl import expected_status
from repro.hw.thermal import rc_step
from repro.throttle.dutycycle import representable_duty
from repro.validate.violations import ValidationReport, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.node import Node
    from repro.sim.engine import Engine
    from repro.sim.events import ScheduledEvent

#: Slack below the coldest legitimate temperature / above TjMax before the
#: bounds invariant fires (the RC step itself is checked exactly; bounds
#: only guard against physically impossible excursions).
_THERMAL_SLACK_DEGC = 1e-9

#: Relative slack on the APERF-vs-MPERF delta comparison: the deltas are
#: differences of large accumulated floats, so cancellation can cost a few
#: ulps even though every individual increment satisfies the inequality
#: exactly.  Real violations perturb whole cycles and clear this easily.
_APERF_REL_EPS = 1e-6


def rederive_contention(node: "Node") -> tuple[list[float], int]:
    """Each socket's memory demand and the node-wide busy count, from scratch.

    Reads only the cores' states and segments, never the node's memo, so
    the result is what a full, cache-free pass derives from the current
    machine state.
    """
    mlp = node.config.memory.mlp_per_core
    busy_state = CoreState.BUSY
    ref_demand = []
    busy_total = 0
    for cores in node._socket_cores:
        demand = 0.0
        for core in cores:
            if core.state is busy_state and core.segment is not None:
                demand += mlp * core.segment.mem_fraction
                busy_total += 1
        ref_demand.append(demand)
    return ref_demand, busy_total


def rederive_rates(
    node: "Node", ref_demand: list[float], busy_total: int
) -> list[tuple[float, float]]:
    """Every core's ``(speed, mem_wall_fraction)``, by core index, from scratch.

    ``ref_demand`` and ``busy_total`` come from :func:`rederive_contention`.
    The arithmetic is the memory model's, written out independently of the
    node's fused rate-and-power loop so the two can be compared exactly.
    """
    mcfg = node.config.memory
    knee = mcfg.knee_refs
    busy_state = CoreState.BUSY
    rates = [(0.0, 0.0)] * len(node.cores)
    for s, cores in enumerate(node._socket_cores):
        demand_s = ref_demand[s]
        if demand_s <= knee:
            stretch_s = 1.0
        else:
            stretch_s = (demand_s / knee) ** mcfg.contention_exponent
        for core in cores:
            if core.state is busy_state and core.segment is not None:
                seg = core.segment
                exponent = seg.contention_exponent
                if demand_s <= knee:
                    sigma = 1.0
                elif exponent is None:
                    sigma = stretch_s
                else:
                    sigma = (demand_s / knee) ** exponent
                if seg.coherence_penalty > 0.0 and busy_total > 1:
                    sigma += seg.coherence_penalty * (busy_total - 1)
                mu = seg.mem_fraction
                wall_stretch = (1.0 - mu) / core.duty + mu * sigma
                speed = 1.0 / wall_stretch
                mwf = (mu * sigma) / wall_stretch if wall_stretch > 0 else 0.0
                rates[core.index] = (speed, mwf)
    return rates


class InvariantChecker:
    """Attachable physics and accounting sanitizer for one run."""

    def __init__(
        self,
        *,
        interval_s: float = 0.1,
        max_records: int = 200,
        on_violation: Optional[Callable[[Violation], None]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s!r}")
        self.interval_s = interval_s
        self.max_records = max_records
        self.on_violation = on_violation
        #: First occurrence per (invariant, socket, core) site.
        self.violations: list[Violation] = []
        #: Total recurrences per invariant name (incl. deduplicated ones).
        self.violation_counts: dict[str, int] = {}
        #: Invariant evaluations performed (proof the battery ran).
        self.checks: dict[str, int] = {}
        self.batteries = 0
        self.syncs = 0
        self.events = 0
        self._engine: Optional["Engine"] = None
        self._node: Optional["Node"] = None
        self._seen: set[tuple[str, Optional[int], Optional[int]]] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, engine: "Engine", node: "Node") -> None:
        """Hook the engine and node and baseline the shadow ledgers."""
        if self._engine is not None:
            raise RuntimeError("checker is already attached")
        self._engine = engine
        self._node = node
        sockets = node.config.sockets
        # Shadow ledgers, baselined at attach time.
        self._base_energy = [node.rapl[s].energy_j for s in range(sockets)]
        self._shadow_energy = [0.0] * sockets
        self._shadow_temp = [node.thermal[s].temp_degc for s in range(sockets)]
        self._temp_floor = [
            min(node.config.thermal.ambient_degc, node.thermal[s].temp_degc)
            for s in range(sockets)
        ]
        # The RAPL accumulator and the perfctr power integral receive the
        # identical increment sequence, so when they start out exactly
        # equal they stay exactly equal; if a test attached mid-divergence
        # the cross-check is skipped rather than fuzzed.
        self._counter_coherent = [
            node.rapl[s].energy_j == node.counters[s].power_integral_j
            for s in range(sockets)
        ]
        self._last_energy = list(self._base_energy)
        self._last_mperf = [core.mperf_cycles for core in node.cores]
        self._last_aperf = [core.aperf_cycles for core in node.cores]
        self._last_event_time = engine.now
        self._last_fired = engine.fired
        self._last_battery = engine.now
        node.set_sync_probe(self._on_sync)
        engine.add_probe(self._on_event)

    def detach(self) -> None:
        """Run a final battery and unhook (idempotent)."""
        engine, node = self._engine, self._node
        if engine is None or node is None:
            return
        self.check_now()
        node.set_sync_probe(None)
        engine.remove_probe(self._on_event)
        self._engine = None
        self._node = None

    def report(self, spec, violations) -> ValidationReport:
        """Package ``violations`` with this checker's telemetry for ``spec``."""
        return ValidationReport(
            spec=spec,
            violations=tuple(violations),
            checks=dict(self.checks),
            batteries=self.batteries,
            syncs=self.syncs,
            events=self.events,
        )

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def _on_sync(self, dt: float) -> None:
        node = self._node
        assert node is not None
        self.syncs += 1
        powers = node._socket_power
        shadow_e = self._shadow_energy
        shadow_t = self._shadow_temp
        thermal_cfg = node.config.thermal
        for s in range(node.config.sockets):
            p = powers[s]
            shadow_e[s] += p * dt
            shadow_t[s] = rc_step(thermal_cfg, shadow_t[s], p, dt)
        now = node._last_sync
        if now - self._last_battery >= self.interval_s:
            self.check_now()

    def _on_event(self, time: float, event: "ScheduledEvent") -> None:
        self.events += 1
        self._tally("engine-time")
        if time < self._last_event_time:
            self._record(
                "engine-time",
                "engine",
                f"event time {time!r} ran before {self._last_event_time!r}",
                time_s=time,
            )
        self._last_event_time = time
        # The engine drains post-event hooks before probes fire, so a
        # node still owing its deferred re-derivation here would carry
        # stale rates and power into the next interval's integration.
        node = self._node
        assert node is not None
        self._tally("deferred-recompute")
        if node._flush_pending:
            self._record(
                "deferred-recompute",
                "model",
                "node has a deferred recompute outstanding after the event",
                time_s=time,
            )
        if time - self._last_battery >= self.interval_s:
            self.check_now()

    # ------------------------------------------------------------------
    # the battery
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Evaluate every invariant against the current model state."""
        engine, node = self._engine, self._node
        if engine is None or node is None:
            raise RuntimeError("checker is not attached")
        now = engine.now
        self.batteries += 1
        self._last_battery = now
        cfg = node.config
        sockets = cfg.sockets

        # --- engine accounting ------------------------------------------
        self._tally("engine-accounting")
        if engine.pending < 0:
            self._record(
                "engine-accounting", "engine",
                f"pending event count is negative: {engine.pending}",
                time_s=now,
            )
        if engine.fired < self._last_fired:
            self._record(
                "engine-accounting", "engine",
                f"fired counter moved backwards: {engine.fired} < {self._last_fired}",
                time_s=now,
            )
        self._last_fired = engine.fired

        # --- independently re-derived contention state ------------------
        mcfg = cfg.memory
        knee = mcfg.knee_refs
        ref_demand, busy_total = rederive_contention(node)

        for s in range(sockets):
            self._check_socket(node, s, now, ref_demand[s], knee, mcfg)
        self._check_rates(node, now, ref_demand, busy_total)
        for core in node.cores:
            self._check_core(node, core, now)

    # ------------------------------------------------------------------
    def _check_socket(self, node, s, now, demand, knee, mcfg):
        rapl = node.rapl[s]
        actual_e = rapl.energy_j

        self._tally("energy-conservation")
        expect_e = self._base_energy[s] + self._shadow_energy[s]
        if actual_e != expect_e:
            self._record(
                "energy-conservation", "model",
                f"RAPL accumulator {actual_e!r} J != integrated power "
                f"{expect_e!r} J (diff {actual_e - expect_e:.3e} J)",
                time_s=now, socket=s,
            )

        self._tally("energy-monotonic")
        if actual_e < self._last_energy[s]:
            self._record(
                "energy-monotonic", "model",
                f"energy moved backwards: {actual_e!r} < {self._last_energy[s]!r}",
                time_s=now, socket=s,
            )
        self._last_energy[s] = actual_e

        if self._counter_coherent[s]:
            self._tally("energy-counter-coherence")
            integral = node.counters[s].power_integral_j
            if actual_e != integral:
                self._record(
                    "energy-counter-coherence", "model",
                    f"RAPL accumulator {actual_e!r} J != perfctr power "
                    f"integral {integral!r} J",
                    time_s=now, socket=s,
                )

        # A negative accumulator has no well-defined register image (the
        # units helpers reject it); conservation/monotonicity above have
        # already flagged the corruption, so don't let the sanitizer die
        # deriving a register from garbage.
        self._tally("rapl-register")
        raw = rapl.read_status()
        expect_raw = expected_status(actual_e) if actual_e >= 0 else None
        if expect_raw is not None and raw != expect_raw:
            self._record(
                "rapl-register", "model",
                f"MSR_PKG_ENERGY_STATUS {raw} != {expect_raw} implied by "
                f"{actual_e!r} J",
                time_s=now, socket=s,
            )

        therm = node.thermal[s]
        temp = therm.temp_degc
        self._tally("thermal-step")
        if temp != self._shadow_temp[s]:
            self._record(
                "thermal-step", "model",
                f"die temperature {temp!r} degC != shadow RC trajectory "
                f"{self._shadow_temp[s]!r} degC",
                time_s=now, socket=s,
            )

        self._tally("thermal-bounds")
        tjmax = node.config.thermal.tjmax_degc
        if (
            temp < self._temp_floor[s] - _THERMAL_SLACK_DEGC
            or temp > tjmax + _THERMAL_SLACK_DEGC
        ):
            self._record(
                "thermal-bounds", "model",
                f"die temperature {temp!r} degC outside "
                f"[{self._temp_floor[s]!r}, {tjmax!r}]",
                time_s=now, socket=s,
            )

        self._tally("memory-coherence")
        mem = node._mem_state[s]
        if demand <= knee:
            stretch = 1.0
        else:
            stretch = (demand / knee) ** mcfg.contention_exponent
        bw_util = 0.0 if demand <= 0 else min(1.0, demand / knee)
        if (
            mem.demand != demand
            or mem.stretch != stretch
            or mem.bw_util != bw_util
        ):
            self._record(
                "memory-coherence", "model",
                f"cached memory state (demand={mem.demand!r}, "
                f"stretch={mem.stretch!r}, bw={mem.bw_util!r}) != re-derived "
                f"(demand={demand!r}, stretch={stretch!r}, bw={bw_util!r})",
                time_s=now, socket=s,
            )

        self._tally("power-coherence")
        priced_at = node._power_temp[s]
        if priced_at is not None:
            ref = reference_socket_power_w(
                node.config.power, node._socket_cores[s], mem.bw_util, priced_at
            )
            if node._socket_power[s] != ref:
                self._record(
                    "power-coherence", "model",
                    f"cached socket power {node._socket_power[s]!r} W != "
                    f"memo-free recomputation {ref!r} W at {priced_at!r} degC",
                    time_s=now, socket=s,
                )

    # ------------------------------------------------------------------
    def _check_rates(self, node, now, ref_demand, busy_total):
        """Re-derive every core's rate from scratch and compare exactly."""
        rates = rederive_rates(node, ref_demand, busy_total)
        for core in node.cores:
            self._tally("rate-coherence")
            speed, mwf = rates[core.index]
            if core.speed != speed or core.mem_wall_fraction != mwf:
                self._record(
                    "rate-coherence", "model",
                    f"cached rate (speed={core.speed!r}, "
                    f"mem_wall={core.mem_wall_fraction!r}) != re-derived "
                    f"(speed={speed!r}, mem_wall={mwf!r})",
                    time_s=now, socket=core.socket, core=core.index,
                )

    # ------------------------------------------------------------------
    def _check_core(self, node, core, now):
        i = core.index
        mperf, aperf = core.mperf_cycles, core.aperf_cycles

        self._tally("counter-monotonic")
        if mperf < self._last_mperf[i] or aperf < self._last_aperf[i]:
            self._record(
                "counter-monotonic", "model",
                f"APERF/MPERF moved backwards: mperf {mperf!r} < "
                f"{self._last_mperf[i]!r} or aperf {aperf!r} < "
                f"{self._last_aperf[i]!r}",
                time_s=now, core=i,
            )

        self._tally("aperf-mperf")
        d_m = mperf - self._last_mperf[i]
        d_a = aperf - self._last_aperf[i]
        if d_a > d_m + _APERF_REL_EPS * (abs(d_m) + 1.0):
            self._record(
                "aperf-mperf", "model",
                f"APERF advanced faster than MPERF: delta {d_a!r} > {d_m!r} "
                f"(duty cycles cannot exceed 1)",
                time_s=now, core=i,
            )
        self._last_mperf[i] = mperf
        self._last_aperf[i] = aperf

        self._tally("duty-legality")
        duty = core.duty
        if not (0.0 < duty <= 1.0) or not math.isfinite(duty):
            self._record(
                "duty-legality", "model",
                f"duty cycle {duty!r} outside (0, 1]",
                time_s=now, core=i,
            )
        elif core.state is CoreState.SPIN and not representable_duty(duty):
            self._record(
                "duty-legality", "model",
                f"spin duty {duty!r} is not a representable modulation level",
                time_s=now, core=i,
            )

        self._tally("clockmod-legality")
        raw = core.clock_mod_raw
        if not is_legal_clock_modulation(raw):
            self._record(
                "clockmod-legality", "model",
                f"IA32_CLOCK_MODULATION holds illegal value {raw!r}",
                time_s=now, core=i,
            )
        elif raw and not representable_duty(decode_clock_modulation(raw)):
            self._record(
                "clockmod-legality", "model",
                f"register {raw!r} decodes to unrepresentable duty",
                time_s=now, core=i,
            )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _tally(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def _record(
        self,
        invariant: str,
        category: str,
        message: str,
        *,
        time_s: float,
        socket: Optional[int] = None,
        core: Optional[int] = None,
    ) -> None:
        self.violation_counts[invariant] = self.violation_counts.get(invariant, 0) + 1
        site = (invariant, socket, core)
        if site in self._seen:
            return
        self._seen.add(site)
        violation = Violation(
            invariant=invariant,
            category=category,
            message=message,
            time_s=time_s,
            socket=socket,
            core=core,
        )
        if len(self.violations) < self.max_records:
            self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)
