"""Hardened pipeline under faults: reader, daemon, blackboard, controller."""

import numpy as np
import pytest

from repro.config import FaultConfig, ThrottleConfig
from repro.errors import MSRReadError
from repro.faults import FaultInjector, parse_fault_spec
from repro.hw.core import Segment
from repro.hw.msr import MSRFile, MSR_PKG_ENERGY_STATUS
from repro.hw.node import Node
from repro.measure.energy import EnergyReader, SampleQuality
from repro.rcr import Blackboard, RCRDaemon, meters
from repro.sim.engine import Engine
from repro.throttle import ThrottleController
from repro.units import RAPL_COUNTER_MODULUS, RAPL_ENERGY_UNIT_J
from tests.conftest import make_runtime
from tests.throttle.test_throttle import hot_program

pytestmark = pytest.mark.faults


# --------------------------------------------------- hardened EnergyReader
class _FlakyCounter:
    """Wrapping MSR counter whose reads can fail or stick on demand."""

    def __init__(self):
        self.ticks = 0
        self.fail_reads = 0
        self._hold_reads = 0
        self._held = 0
        self.msr = MSRFile()
        self.msr.map_package(0, MSR_PKG_ENERGY_STATUS, reader=self._read)

    def stick(self, reads):
        """Latch the current register value for the next ``reads`` reads."""
        self._held = self.ticks % RAPL_COUNTER_MODULUS
        self._hold_reads = reads

    def _read(self):
        if self.fail_reads > 0:
            self.fail_reads -= 1
            raise MSRReadError("injected by test")
        if self._hold_reads > 0:
            self._hold_reads -= 1
            return self._held
        return self.ticks % RAPL_COUNTER_MODULUS


def _reader_with_rate():
    """Reader that has seen one good 1000-tick poll over 0.1 s (10 kticks/s)."""
    fake = _FlakyCounter()
    reader = EnergyReader(fake.msr, 0)
    fake.ticks += 1000
    sample = reader.poll_sample(0.1)
    assert sample.quality is SampleQuality.OK
    return fake, reader


def test_retried_read_is_flagged_but_measured():
    fake, reader = _reader_with_rate()
    fake.fail_reads = 2  # within the default retry budget of 3
    fake.ticks += 1000
    sample = reader.poll_sample(0.1)
    assert sample.quality is SampleQuality.RETRIED
    assert sample.retries == 2
    assert sample.good
    assert sample.delta_ticks == 1000  # measured, not estimated
    assert reader.retries_total == 2
    assert reader.total_joules == pytest.approx(2000 * RAPL_ENERGY_UNIT_J)


def test_exhausted_retries_interpolate_without_double_count():
    fake, reader = _reader_with_rate()
    fake.fail_reads = 4  # first attempt + all 3 retries fail
    fake.ticks += 1000
    sample = reader.poll_sample(0.1)
    assert sample.quality is SampleQuality.INTERPOLATED
    assert not sample.good
    assert sample.delta_ticks == 1000  # rate estimate: 10 kticks/s * 0.1 s
    assert reader.interpolated_polls == 1
    # Recovery: the true modular delta spans the outage, so the bridged
    # ticks must be reconciled away, not added on top.
    fake.ticks += 1000
    sample = reader.poll_sample(0.1)
    assert sample.quality is SampleQuality.OK
    assert sample.delta_ticks == 1000
    assert reader.total_joules == pytest.approx(3000 * RAPL_ENERGY_UNIT_J)


def test_interpolation_without_rate_estimate_bridges_zero():
    fake = _FlakyCounter()
    reader = EnergyReader(fake.msr, 0)
    fake.fail_reads = 4
    fake.ticks += 1000
    sample = reader.poll_sample(0.1)  # no rate seen yet: nothing to estimate
    assert sample.quality is SampleQuality.INTERPOLATED
    assert sample.delta_ticks == 0
    # The next good read still recovers the full modular delta.
    sample = reader.poll_sample(0.1)
    assert sample.delta_ticks == 1000
    assert reader.total_joules == pytest.approx(1000 * RAPL_ENERGY_UNIT_J)


def test_stuck_counter_detected_and_reconciled():
    fake, reader = _reader_with_rate()
    fake.stick(1)  # register repeats its current value for one read
    fake.ticks += 1000
    sample = reader.poll_sample(0.1)
    assert sample.quality is SampleQuality.INTERPOLATED
    assert sample.delta_ticks == 1000  # bridged at the established rate
    assert reader.stuck_polls == 1
    # Once unstuck the register is 2000 ticks ahead of _last_raw; the
    # 1000 bridged ticks are subtracted so the total matches ground truth.
    fake.ticks += 1000
    sample = reader.poll_sample(0.1)
    assert sample.quality is SampleQuality.OK
    assert sample.delta_ticks == 1000
    assert reader.total_joules == pytest.approx(3000 * RAPL_ENERGY_UNIT_J)


def test_zero_delta_without_rate_context_is_clean():
    fake = _FlakyCounter()
    reader = EnergyReader(fake.msr, 0)
    sample = reader.poll_sample()  # legacy path: no window, no suspicion
    assert sample.quality is SampleQuality.OK
    assert sample.delta_ticks == 0
    assert reader.stuck_polls == 0


def test_missed_wraps_recovered_from_rate():
    fake, reader = _reader_with_rate()  # 10 kticks/s established
    advance = 2 * RAPL_COUNTER_MODULUS + 500  # two full wraps missed
    fake.ticks += advance
    sample = reader.poll_sample(advance / 10_000.0)
    assert sample.quality is SampleQuality.WRAP_SUSPECT
    assert not sample.good
    assert sample.delta_ticks == advance
    assert reader.wraps == 2
    assert reader.wraps_recovered == 2
    assert reader.total_joules == pytest.approx(
        (1000 + advance) * RAPL_ENERGY_UNIT_J
    )


def test_exact_wrap_recovered_with_rate_hint():
    # The pathological case: the counter advances exactly one full period,
    # so raw == last_raw and the modular delta is zero.  With an expected-
    # progress baseline the missing period is recovered.
    fake, reader = _reader_with_rate()
    fake.ticks += RAPL_COUNTER_MODULUS
    sample = reader.poll_sample(RAPL_COUNTER_MODULUS / 10_000.0)
    assert sample.quality is SampleQuality.WRAP_SUSPECT
    assert sample.delta_ticks == RAPL_COUNTER_MODULUS
    assert reader.wraps == 1
    assert reader.total_joules == pytest.approx(
        (1000 + RAPL_COUNTER_MODULUS) * RAPL_ENERGY_UNIT_J
    )


def test_wrap_suspect_reconciles_outstanding_interpolation():
    fake, reader = _reader_with_rate()
    fake.fail_reads = 4
    fake.ticks += 1000
    reader.poll_sample(0.1)  # bridged: 1000 interpolated ticks outstanding
    advance = RAPL_COUNTER_MODULUS + 500
    fake.ticks += advance
    sample = reader.poll_sample(advance / 10_000.0)
    assert sample.quality is SampleQuality.WRAP_SUSPECT
    # 1000 (good) + 1000 (bridged) + advance-1000 (reconciled recovery).
    assert reader.total_joules == pytest.approx(
        (1000 + 1000 + advance) * RAPL_ENERGY_UNIT_J
    )


def test_quality_histogram_counts_every_poll():
    fake, reader = _reader_with_rate()
    fake.fail_reads = 1
    fake.ticks += 1000
    reader.poll_sample(0.1)
    fake.fail_reads = 4
    fake.ticks += 1000
    reader.poll_sample(0.1)
    counts = reader.quality_counts
    assert counts[SampleQuality.OK] == 1
    assert counts[SampleQuality.RETRIED] == 1
    assert counts[SampleQuality.INTERPOLATED] == 1
    assert sum(counts.values()) == 3


# -------------------------------------------- long-horizon wrap accounting
def test_long_horizon_multi_wrap_matches_ground_truth():
    """EnergyReader vs the node's RAPL domain over ~4 counter wraps."""
    node = Node(Engine(), warm=False)
    reader = EnergyReader(node.msr, 0)
    # Nothing re-prices an idle node, so each step deposits ~30 kJ per
    # poll, comfortably under half the ~65.7 kJ counter period.
    step_s = 30_000.0 / node._socket_power[0]
    for _ in range(10):
        node.engine.run(until=node.engine.now + step_s)
        reader.poll()
    dom = node.rapl[0]
    period_j = RAPL_COUNTER_MODULUS * RAPL_ENERGY_UNIT_J
    expected_wraps = int(dom.energy_j / period_j)
    assert expected_wraps == 4
    assert reader.wraps == expected_wraps
    # Within one 15.3 uJ tick per wrap (plus one for final quantisation).
    tolerance = (expected_wraps + 1) * RAPL_ENERGY_UNIT_J
    assert abs(reader.total_joules - dom.energy_j) <= tolerance


# ------------------------------------------------------ daemon degradation
def _faulty_stack(runtime, config, seed=0):
    bb = Blackboard()
    injector = FaultInjector(
        config, np.random.default_rng(seed), now_fn=lambda: runtime.engine.now
    )
    daemon = RCRDaemon(runtime.engine, runtime.node, bb, faults=injector)
    daemon.start()
    return bb, daemon, injector


def test_daemon_publishes_quality_meters_when_healthy(runtime):
    bb = Blackboard()
    daemon = RCRDaemon(runtime.engine, runtime.node, bb)
    daemon.start()
    runtime.engine.run(until=0.55)
    for s in range(2):
        assert bb.read_value(meters.socket_sample_quality(s)) == SampleQuality.OK
        assert bb.read_value(meters.socket_stale_s(s)) == 0.0
    assert bb.read_value(meters.DAEMON_HEALTH) == 1.0
    assert bb.read_value(meters.DAEMON_LATE_TICKS) == 0
    assert bb.read_value(meters.DAEMON_MISSED_TICKS) == 0


def test_daemon_carries_forward_last_good_power(runtime):
    # Active-but-harmless config so the faulty MSR proxy is installed; the
    # failure mode is switched on mid-run to get a known-good prefix.
    config = FaultConfig(enabled=True, therm_noise_degc=1e-9)
    bb, daemon, injector = _faulty_stack(runtime, config)
    for i in range(8):
        runtime.node.assign(i, Segment(2.0, mem_fraction=0.3))
    runtime.engine.run(until=0.55)
    good_power = bb.read_value(meters.socket_power_w(0))
    assert good_power > 10.0
    injector.config = config.with_changes(
        msr_read_fail_p=1.0, msr_read_fail_burst=10**6
    )
    runtime.engine.run(until=1.05)
    # Degraded samples carry the last good power forward with a staleness
    # stamp instead of publishing garbage Watts derived from estimates.
    assert bb.read_value(meters.socket_power_w(0)) == good_power
    assert bb.read_value(meters.socket_sample_quality(0)) == SampleQuality.INTERPOLATED
    assert bb.read_value(meters.socket_stale_s(0)) >= 0.4
    assert bb.read_value(meters.DAEMON_HEALTH) == 0.0
    assert daemon.quality_counts[SampleQuality.INTERPOLATED] > 0


def test_daemon_watchdog_counts_stall(runtime):
    config = parse_fault_spec("stall,stall_at_s=0.3,stall_duration_s=1")
    bb, daemon, injector = _faulty_stack(runtime, config)
    runtime.engine.run(until=2.5)
    assert injector.stats["stalls"] == 1
    assert daemon.late_ticks == 1
    # A 1 s stall on a 0.1 s cadence means ~10 windows never sampled.
    assert 8 <= daemon.missed_ticks <= 12
    assert bb.read_value(meters.DAEMON_LATE_TICKS) == 1
    assert bb.read_value(meters.DAEMON_MISSED_TICKS) == daemon.missed_ticks


def test_sample_now_is_noop_after_stop(runtime):
    """A stopped daemon must never publish (satellite regression)."""
    bb = Blackboard()
    daemon = RCRDaemon(runtime.engine, runtime.node, bb)
    daemon.start()
    runtime.engine.run(until=0.35)
    daemon.stop()
    ticks = daemon.ticks
    stamp = bb.read(meters.DAEMON_TIMESTAMP)
    runtime.engine.schedule(0.5, lambda: None)
    runtime.engine.run(until=0.9)
    daemon.sample_now()
    assert daemon.ticks == ticks
    assert bb.read(meters.DAEMON_TIMESTAMP) == stamp


def test_daemon_with_inert_injector_is_bit_identical(runtime):
    # An inert injector must leave the daemon provably untouched: the
    # node's own MSRFile, no fault hooks on the sampling path.
    injector = FaultInjector(FaultConfig(enabled=True), np.random.default_rng(0))
    bb = Blackboard()
    daemon = RCRDaemon(runtime.engine, runtime.node, bb, faults=injector)
    assert daemon.faults is None
    assert daemon._msr is runtime.node.msr
    # And the published meters match a no-faults stack exactly.
    other = make_runtime()
    bb_ref = Blackboard()
    RCRDaemon(other.engine, other.node, bb_ref).start()
    daemon.start()
    for rt in (runtime, other):
        for i in range(8):
            rt.node.assign(i, Segment(1.0, mem_fraction=0.4))
        rt.engine.run(until=1.05)
    assert bb.tree() == bb_ref.tree()


# -------------------------------------------------- blackboard staleness
def test_blackboard_staleness_queries():
    bb = Blackboard()
    assert bb.last_update_s("nope") is None
    assert bb.staleness_s("nope", 1.0) == float("inf")
    assert bb.is_stale("nope", 1.0, 100.0)
    bb.publish("x", 1.0, timestamp=2.0)
    assert bb.last_update_s("x") == 2.0
    assert bb.staleness_s("x", 5.0) == 3.0
    assert bb.staleness_s("x", 1.5) == 0.0  # never negative
    assert not bb.is_stale("x", 2.1, 0.25)
    assert bb.is_stale("x", 2.3, 0.25)


# -------------------------------------------- controller fail-safe (E2E)
def test_controller_holds_then_releases_on_daemon_stall():
    """Acceptance: forced stall -> hold on stale meters -> fail-safe release."""
    rt = make_runtime(16)
    bb = Blackboard()
    injector = FaultInjector(
        parse_fault_spec("stall,stall_at_s=0.5,stall_duration_s=2"),
        np.random.default_rng(0),
        now_fn=lambda: rt.engine.now,
    )
    daemon = RCRDaemon(rt.engine, rt.node, bb, faults=injector)
    daemon.start()
    config = ThrottleConfig(enabled=True)
    controller = ThrottleController(rt.engine, rt.scheduler, bb, config)
    controller.start()
    res = rt.run(hot_program())
    # Keep the stack ticking until well after the stall has played out.
    rt.engine.run(until=max(rt.engine.now, 4.0))

    assert injector.stats["stalls"] == 1
    assert res.throttle_activations >= 1  # engaged before the stall
    held = [d for d in controller.decisions if d.held_stale]
    released = [d for d in controller.decisions if d.failsafe_release]
    assert held, "no hold-on-stale decisions recorded"
    assert released, "no fail-safe release decisions recorded"
    assert controller.held_stale_count == len(held)
    assert controller.failsafe_releases == len(released)
    # Hold first (staleness in (stale_after, failsafe_release]), then
    # release once the meters stay dead past the deadline.
    assert max(d.time_s for d in held) < min(d.time_s for d in released)
    first_hold = min(held, key=lambda d: d.time_s)
    first_release = min(released, key=lambda d: d.time_s)
    stall_start = 0.5
    assert first_hold.time_s > stall_start + config.stale_after_s
    assert first_release.time_s > stall_start + config.failsafe_release_s
    # A hold preserves the pre-stall flag; a release always unthrottles.
    assert any(d.throttle for d in held)
    assert all(not d.throttle for d in released)


def test_controller_failsafe_untouched_on_healthy_run():
    rt = make_runtime(16)
    bb = Blackboard()
    daemon = RCRDaemon(rt.engine, rt.node, bb)
    daemon.start()
    controller = ThrottleController(
        rt.engine, rt.scheduler, bb, ThrottleConfig(enabled=True)
    )
    controller.start()
    rt.run(hot_program(chunks=200))
    assert controller.held_stale_count == 0
    assert controller.failsafe_releases == 0
    assert all(
        not d.held_stale and not d.failsafe_release for d in controller.decisions
    )
