"""The RCRdaemon: supervisor-level counter sampling at 0.1 s cadence.

Every tick the daemon:

* polls each socket's ``MSR_PKG_ENERGY_STATUS`` through the wrap-aware
  :class:`~repro.measure.energy.EnergyReader` (privileged MSR access —
  the daemon runs at supervisor level, per Section II-B and footnote 3);
* derives the window's average power from the RAPL energy delta — power
  is *measured*, not estimated from activity, which the paper contrasts
  against prior counter-correlation approaches (Section V);
* reads the package temperature from ``IA32_THERM_STATUS``;
* samples the socket's uncore concurrency counters (average outstanding
  memory references and bandwidth utilisation over the window);
* publishes everything to the :class:`~repro.rcr.blackboard.Blackboard`.

The 0.1 s period is the paper's choice, "to allow fluctuations in the
energy counters to dissipate"; it is configurable to trade overhead for
responsiveness, exactly as described.

The daemon is hardened against a misbehaving sensor path (optionally
stressed via :mod:`repro.faults`): a watchdog counts late and missed
ticks, every published power sample carries a quality flag, and degraded
samples (failed/stuck/wrap-suspect reads) carry forward the last-known-
good power with an explicit staleness stamp instead of publishing garbage
derived from a corrupt window.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.config import MeterConfig
from repro.errors import MeasurementError
from repro.hw.msr import IA32_THERM_STATUS
from repro.hw.node import Node
from repro.hw.perfctr import window_average
from repro.hw.thermal import ThermalState
from repro.measure.energy import SampleQuality
from repro.metering import make_backend
from repro.rcr import meters
from repro.rcr.blackboard import Blackboard
from repro.sim.engine import Engine
from repro.sim.events import Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> config)
    from repro.faults.injector import FaultInjector

#: Watchdog tolerance: a tick later than this multiple of the period is
#: counted late (jitter profiles stay inside it; stalls do not).
_WATCHDOG_LATE_FACTOR = 1.5


class RCRDaemon:
    """Periodic sampler publishing node power/energy/thermal/memory meters."""

    def __init__(
        self,
        engine: Engine,
        node: Node,
        blackboard: Blackboard,
        *,
        period_s: float = 0.1,
        model_overhead: bool = False,
        overhead_fraction: float = 0.16,
        overhead_core: Optional[int] = None,
        faults: Optional["FaultInjector"] = None,
        meter: Optional[MeterConfig] = None,
    ) -> None:
        """``model_overhead=True`` charges the daemon's own CPU cost.

        The paper measures the RCRdaemon at "about 16% of one of the 16
        cores"; when enabled, each tick runs ``overhead_fraction x
        period`` of work on ``overhead_core`` (default: the node's last
        core) whenever that core is free, so the daemon's power draw and
        cache traffic appear in the measurements.  Experiments leave this
        off by default — the paper's table numbers come from runs where
        the daemon competes with the app, and our profiles are calibrated
        to those numbers, so modelling it *additionally* would double
        count; it exists for studies of the daemon cost itself.

        ``meter`` selects the metering backend and the per-read observer
        model (:class:`~repro.config.MeterConfig`): it overrides
        ``period_s`` (and ``overhead_core`` when set), and a non-zero
        ``read_cost_s`` charges every socket sample read as real work on
        the overhead core — a finer-grained cousin of ``model_overhead``
        whose cost scales with cadence instead of with it, which is what
        lets the metersweep study overhead-vs-fidelity.  ``meter=None``
        (or the default config) is provably inert: the daemon builds the
        same RAPL path as always and charges nothing.
        """
        if meter is not None:
            meter.validate()
            period_s = meter.period_s
            if meter.overhead_core is not None:
                overhead_core = meter.overhead_core
        if not 0 < period_s < math.inf:
            raise MeasurementError(
                f"period must be finite and positive, got {period_s!r}")
        if not (0.0 <= overhead_fraction < 1.0):
            raise MeasurementError(
                f"overhead_fraction must be in [0,1), got {overhead_fraction!r}"
            )
        self.engine = engine
        self.node = node
        self.blackboard = blackboard
        self.period_s = period_s
        self.model_overhead = model_overhead
        self.overhead_fraction = overhead_fraction
        self.overhead_core = (
            overhead_core if overhead_core is not None
            else node.topology.total_cores - 1
        )
        self.overhead_ticks_run = 0
        self.overhead_ticks_skipped = 0
        self._sockets = node.config.sockets
        #: Core through which each socket's package MSRs are read (fixed
        #: topology — resolved once instead of per tick).
        self._first_cores = [
            node.topology.cores_in_socket(s).start for s in range(self._sockets)
        ]
        #: Fault injector (None or inert = provably untouched sensor path:
        #: wrap_msr returns the node's own MSRFile in that case).
        self.faults = faults if (faults is not None and faults.active) else None
        self._msr = self.faults.wrap_msr(node.msr) if self.faults else node.msr
        #: Metering backend: the config's choice, or the default RAPL path
        #: (which performs byte-identical MSR traffic to the pre-backend
        #: daemon — pinned by the golden-trace suite).
        self.meter = meter
        self.backend = make_backend(
            meter.backend if meter is not None else "rapl", self._msr, node
        )
        self._read_cost_s = meter.read_cost_s if meter is not None else 0.0
        self._read_mem_fraction = (
            meter.read_mem_fraction if meter is not None else 0.3
        )
        #: Observer-overhead accounting: socket sample reads charged as
        #: work segments, reads skipped (overhead core busy), and the
        #: exact solo-seconds charged (= reads_charged * read_cost_s, an
        #: invariant the validate layer audits).
        self.overhead_reads_charged = 0
        self.overhead_reads_skipped = 0
        self._prev_joules = [0.0] * self._sockets
        self._counter_snaps = [
            node.counters_snapshot(s) for s in range(self._sockets)
        ]
        self._ticks = 0
        self._running = False
        self._next_event = None
        self._last_sample_s = engine.now
        # Watchdog + degraded-mode state.
        self._last_tick_s = engine.now
        self.late_ticks = 0
        self.missed_ticks = 0
        self._last_good_power_w = [0.0] * self._sockets
        self._last_good_ts = [engine.now] * self._sockets
        #: Per-socket quality of the most recent sample.
        self.last_qualities: list[SampleQuality] = (
            [SampleQuality.OK] * self._sockets
        )

    @property
    def ticks(self) -> int:
        """Number of sampling ticks performed."""
        return self._ticks

    @property
    def running(self) -> bool:
        return self._running

    @property
    def quality_counts(self) -> dict[SampleQuality, int]:
        """Aggregate per-sample quality histogram across all sockets."""
        return self.backend.quality_counts()

    @property
    def overhead_solo_s(self) -> float:
        """Total observer-overhead work charged, solo-seconds.

        Derived exactly (one product, no accumulated rounding) so the
        validate layer can audit it with strict float equality.
        """
        return self.overhead_reads_charged * self._read_cost_s

    def start(self) -> None:
        """Begin sampling; the first tick fires one period from now."""
        if self._running:
            raise MeasurementError("daemon already running")
        self._running = True
        self._last_tick_s = self.engine.now
        self.blackboard.publish(meters.DAEMON_PERIOD_S, self.period_s, self.engine.now)
        self._publish_sample(initial=True)
        self._schedule_next()

    def stop(self) -> None:
        """Stop sampling (pending tick is cancelled)."""
        self._running = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def _schedule_next(self) -> None:
        delay = self.period_s
        if self.faults is not None:
            delay = self.faults.perturb_period(delay)
        self._next_event = self.engine.schedule(
            delay, self._tick, priority=Priority.DAEMON, label="rcr-tick"
        )

    def _tick(self) -> None:
        if not self._running:
            return
        self._watchdog_check()
        self._publish_sample(initial=False)
        if self.model_overhead:
            self._charge_overhead()
        self._schedule_next()

    def _watchdog_check(self) -> None:
        """Detect late and missed ticks from the inter-tick gap.

        The daemon cannot observe its own stall while stalled; what it can
        do — and does — is notice on the next tick that the gap was wrong,
        count the damage, and let the sample-quality path decide how much
        of the window is trustworthy.  Clients needing *live* stall
        detection use blackboard record age (the stamps stop advancing).
        """
        now = self.engine.now
        gap = now - self._last_tick_s
        self._last_tick_s = now
        if gap > _WATCHDOG_LATE_FACTOR * self.period_s:
            self.late_ticks += 1
        self.missed_ticks += max(0, round(gap / self.period_s) - 1)

    def _charge_overhead(self) -> None:
        """Run this window's daemon work on the overhead core if free.

        The daemon shares its core with workers; when a worker occupies
        it the OS would timeslice, which the fluid model cannot — the
        skipped tick is counted instead, bounding the approximation.
        """
        from repro.hw.core import CoreState, Segment  # local: avoid cycle

        core = self.node.cores[self.overhead_core]
        if core.state is not CoreState.IDLE:
            self.overhead_ticks_skipped += 1
            return
        self.overhead_ticks_run += 1
        self.node.assign(
            self.overhead_core,
            Segment(
                self.overhead_fraction * self.period_s,
                mem_fraction=0.3,  # counter reads + blackboard compaction
                tag="rcr-daemon",
            ),
        )

    def sample_now(self) -> None:
        """Take an immediate out-of-band sample.

        The region-measurement API calls this at region start/end so a
        report covers exactly its delineated interval instead of lagging
        by up to one period (the real client achieves the same by having
        the end call read the counters synchronously).  The periodic
        schedule is not disturbed; the next periodic window is simply
        shorter.  A call within a microsecond of the previous sample is a
        no-op: the published data is already fresh, and a near-zero window
        would make the derived power meaningless.  A *stopped* daemon is
        also a no-op — a stopped sampler must never publish, otherwise a
        region ending after ``stop()`` silently revives stale meters.
        """
        if not self._running:
            return
        if self.engine.now - self._last_sample_s < 1e-6:
            return
        self._publish_sample(initial=False)

    def _publish_sample(self, *, initial: bool) -> None:
        now = self.engine.now
        window_s = now - self._last_sample_s
        self._last_sample_s = now
        bb = self.blackboard
        total_power = 0.0
        total_energy = 0.0
        good_sockets = 0
        for s in range(self._sockets):
            sample = self.backend.poll_sample(
                s, window_s if (not initial and window_s > 0) else None
            )
            self.last_qualities[s] = sample.quality
            joules = sample.total_joules
            window_j = joules - self._prev_joules[s]
            self._prev_joules[s] = joules
            power_w = (window_j / window_s) if (not initial and window_s > 0) else 0.0

            raw_therm = self._msr.read_core(
                self._first_core(s), IA32_THERM_STATUS, privileged=True
            )
            temp = ThermalState.decode_therm_status(
                raw_therm, self.node.config.thermal.tjmax_degc
            )

            # One snapshot serves both the window average and the next
            # window's baseline (it used to be taken twice per socket).
            snap_now = self.node.counters_snapshot(s)
            window = window_average(self._counter_snaps[s], snap_now)
            self._counter_snaps[s] = snap_now
            avg_demand, avg_bw_util = window.avg_demand, window.avg_bw_util
            if self.faults is not None:
                avg_demand, avg_bw_util = self.faults.perturb_counters(
                    avg_demand, avg_bw_util
                )

            # Degraded mode: a sample whose window is estimated rather than
            # measured must not produce a power meter — the derived Watts
            # would be garbage (a stuck window reads as 0 W, a missed wrap
            # as -650 kW).  Carry the last-known-good value forward and say
            # so with an explicit staleness stamp.
            if sample.good:
                good_sockets += 1
                self._last_good_power_w[s] = power_w
                self._last_good_ts[s] = now
                stale_s = 0.0
            else:
                power_w = self._last_good_power_w[s]
                stale_s = now - self._last_good_ts[s]

            bb.publish(meters.socket_energy_j(s), joules, now)
            bb.publish(meters.socket_power_w(s), power_w, now)
            bb.publish(meters.socket_temp_degc(s), temp, now)
            bb.publish(meters.socket_mem_concurrency(s), avg_demand, now)
            bb.publish(meters.socket_bw_util(s), avg_bw_util, now)
            bb.publish(meters.socket_wraps(s), self.backend.wraps(s), now)
            bb.publish(meters.socket_sample_quality(s), int(sample.quality), now)
            bb.publish(meters.socket_stale_s(s), stale_s, now)
            total_power += power_w
            total_energy += joules
        bb.publish(meters.NODE_POWER_W, total_power, now)
        bb.publish(meters.NODE_ENERGY_J, total_energy, now)
        self._ticks += 1
        bb.publish(meters.DAEMON_TICKS, self._ticks, now)
        bb.publish(meters.DAEMON_TIMESTAMP, now, now)
        bb.publish(meters.DAEMON_HEALTH, good_sockets / self._sockets, now)
        bb.publish(meters.DAEMON_LATE_TICKS, self.late_ticks, now)
        bb.publish(meters.DAEMON_MISSED_TICKS, self.missed_ticks, now)
        if self._read_cost_s > 0.0:
            self._charge_read_cost()

    def _charge_read_cost(self) -> None:
        """Charge this publish's sample reads as work on the overhead core.

        One read per socket per publish; the charge is injected as an
        ordinary :class:`~repro.hw.core.Segment` (never a raw energy
        deposit), so it flows through the full power/thermal/memory
        physics and the invariant checker's conservation ledgers hold.
        Like the legacy ``model_overhead`` path, a busy overhead core
        skips the charge (the fluid model cannot timeslice) and the skip
        is counted, bounding the approximation.
        """
        from repro.hw.core import CoreState, Segment  # local: avoid cycle

        core = self.node.cores[self.overhead_core]
        if core.state is not CoreState.IDLE:
            self.overhead_reads_skipped += self._sockets
            return
        self.overhead_reads_charged += self._sockets
        self.node.assign(
            self.overhead_core,
            Segment(
                self._read_cost_s * self._sockets,
                mem_fraction=self._read_mem_fraction,
                tag="meter-read",
            ),
        )

    def _first_core(self, socket: int) -> int:
        """A core of ``socket`` through which package MSRs are read."""
        return self._first_cores[socket]
