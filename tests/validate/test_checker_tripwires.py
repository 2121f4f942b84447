"""Tripwire self-tests: every runtime invariant must detect a perturbation.

A sanitizer that has never fired is indistinguishable from one that
cannot fire.  Each test here runs a real application with the
:class:`~repro.validate.checker.InvariantChecker` attached, schedules a
mid-run tamper event that corrupts exactly one aspect of the model, and
asserts the matching invariant trips.  The clean-run test at the top
pins the complementary property: with no tamper, nothing fires.
"""

from __future__ import annotations

import pytest

from repro.apps import build_app
from repro.calibration.profiles import get_profile
from repro.config import MachineConfig, RuntimeConfig
from repro.errors import SimulationError
from repro.hw.core import CoreState
from repro.hw.rapl import RaplDomain
from repro.openmp import OmpEnv
from repro.qthreads import Runtime
from repro.units import RAPL_COUNTER_MODULUS
from repro.validate import InvariantChecker

pytestmark = pytest.mark.validate

#: Every invariant the runtime battery evaluates (the record-level ones
#: live in test_record_tripwires.py).
RUNTIME_INVARIANTS = frozenset(
    {
        "engine-time",
        "engine-accounting",
        "energy-conservation",
        "energy-monotonic",
        "energy-counter-coherence",
        "rapl-register",
        "thermal-step",
        "thermal-bounds",
        "memory-coherence",
        "power-coherence",
        "rate-coherence",
        "counter-monotonic",
        "aperf-mperf",
        "duty-legality",
        "clockmod-legality",
        "deferred-recompute",
    }
)


def run_checked(tamper=None, *, app="mergesort", threads=8, at_s=0.5,
                interval_s=0.05) -> InvariantChecker:
    """Run ``app`` under the checker, optionally corrupting state at ``at_s``.

    The RCR daemon rides along (as in every measured run): its periodic
    ticks drive the node's sync cadence, so the checker sees the same
    battery frequency the production path does.
    """
    from repro.rcr import Blackboard, RCRDaemon

    machine = MachineConfig()
    runtime = Runtime(machine, RuntimeConfig(num_threads=threads), seed=0, warm=True)
    checker = InvariantChecker(interval_s=interval_s)
    checker.attach(runtime.engine, runtime.node)
    daemon = RCRDaemon(runtime.engine, runtime.node, Blackboard())
    daemon.start()
    if tamper is not None:
        runtime.engine.schedule(at_s, lambda: tamper(runtime.node))
    profile = get_profile(app, "gcc", "O2", machine)
    program = build_app(app, OmpEnv(num_threads=threads), profile=profile,
                        payload=False)
    runtime.run(program, label=app)
    daemon.stop()
    checker.detach()
    return checker


def assert_trips(tamper, invariant: str, **kw) -> InvariantChecker:
    checker = run_checked(tamper, **kw)
    assert invariant in checker.violation_counts, (
        f"tamper did not trip {invariant}; fired: "
        f"{sorted(checker.violation_counts)}"
    )
    recorded = [v for v in checker.violations if v.invariant == invariant]
    assert recorded, f"{invariant} counted but never recorded"
    assert all(not v.expected for v in recorded)  # classification comes later
    return checker


# ----------------------------------------------------------------------
# the complementary property: clean runs are silent
# ----------------------------------------------------------------------
def test_clean_run_fires_nothing_and_checks_everything() -> None:
    checker = run_checked(None)
    assert checker.violations == []
    assert checker.violation_counts == {}
    assert checker.batteries > 5
    assert checker.syncs > 0 and checker.events > 0
    assert set(checker.checks) == RUNTIME_INVARIANTS
    assert all(count > 0 for count in checker.checks.values())


# ----------------------------------------------------------------------
# energy ledgers
# ----------------------------------------------------------------------
def test_tripwire_energy_conservation() -> None:
    assert_trips(lambda node: setattr(node.rapl[0], "energy_j",
                                      node.rapl[0].energy_j + 1.0),
                 "energy-conservation")


def test_tripwire_energy_monotonic() -> None:
    # The rollback must exceed one battery interval's accrual (~a few J)
    # or the accumulator climbs back above the last checkpoint unseen;
    # 99% of half a second's energy is decisive while staying >= 0.
    assert_trips(lambda node: setattr(node.rapl[0], "energy_j",
                                      node.rapl[0].energy_j * 0.01),
                 "energy-monotonic")


def test_tripwire_energy_counter_coherence() -> None:
    def tamper(node):
        node.counters[0].power_integral_j += 1.0

    assert_trips(tamper, "energy-counter-coherence")


class _SkewedRegister(RaplDomain):
    """A register whose MSR view drifts from the accumulator (bit flip)."""

    __slots__ = ()

    def read_status(self) -> int:
        return (super().read_status() + 7) % RAPL_COUNTER_MODULUS


def test_tripwire_rapl_register() -> None:
    def tamper(node):
        node.rapl[0].__class__ = _SkewedRegister

    assert_trips(tamper, "rapl-register")


# ----------------------------------------------------------------------
# thermal
# ----------------------------------------------------------------------
def test_tripwire_thermal_step() -> None:
    assert_trips(lambda node: setattr(node.thermal[0], "temp_degc",
                                      node.thermal[0].temp_degc + 0.5),
                 "thermal-step")


def test_tripwire_thermal_bounds_above_tjmax() -> None:
    assert_trips(lambda node: setattr(node.thermal[0], "temp_degc", 150.0),
                 "thermal-bounds")


def test_tripwire_thermal_bounds_below_floor() -> None:
    assert_trips(lambda node: setattr(node.thermal[0], "temp_degc", 1.0),
                 "thermal-bounds")


def test_dedup_bounds_records_but_counts_recurrences() -> None:
    """A persistent corruption yields ONE record per site, many counts."""
    checker = assert_trips(
        lambda node: setattr(node.thermal[0], "temp_degc",
                             node.thermal[0].temp_degc + 0.5),
        "thermal-step",
    )
    records = [v for v in checker.violations if v.invariant == "thermal-step"]
    assert len(records) == 1  # socket 0 only, deduplicated
    assert checker.violation_counts["thermal-step"] > 1  # every battery after


# ----------------------------------------------------------------------
# cached-state coherence
# ----------------------------------------------------------------------
def test_tripwire_memory_coherence() -> None:
    def tamper(node):
        node._mem_state[0].demand += 1.0

    assert_trips(tamper, "memory-coherence")


def test_tripwire_power_coherence() -> None:
    def tamper(node):
        node._socket_power[0] *= 1.01

    assert_trips(tamper, "power-coherence")


def test_tripwire_rate_coherence() -> None:
    def tamper(node):
        node.cores[0].mem_wall_fraction += 0.25

    assert_trips(tamper, "rate-coherence")


def test_tripwire_deferred_recompute() -> None:
    """A skipped post-event drain leaves the node's flush outstanding."""

    def tamper(node):
        engine = node.engine

        def skip_once():
            del engine._drain_post_event  # later events drain normally

        engine._drain_post_event = skip_once
        node.set_duty(0, node.cores[0].duty)  # requests a deferred flush

    checker = assert_trips(tamper, "deferred-recompute")
    assert checker.violation_counts["deferred-recompute"] == 1


# ----------------------------------------------------------------------
# per-core counters and registers
# ----------------------------------------------------------------------
def test_tripwire_counter_monotonic() -> None:
    def tamper(node):
        # Far more cycles than the core can accumulate before the next
        # battery, so the rollback is visible despite ongoing progress.
        node.cores[0].aperf_cycles -= 1e15

    assert_trips(tamper, "counter-monotonic")


def test_tripwire_aperf_exceeding_mperf() -> None:
    def tamper(node):
        node.cores[0].aperf_cycles += 1e9

    assert_trips(tamper, "aperf-mperf")


def test_tripwire_duty_legality() -> None:
    def tamper(node):
        node.cores[0].duty = 1.5

    assert_trips(tamper, "duty-legality")


def test_tripwire_clockmod_legality() -> None:
    def tamper(node):
        node.cores[0].clock_mod_raw = 1 << 6  # stray reserved bit

    assert_trips(tamper, "clockmod-legality")


# ----------------------------------------------------------------------
# engine invariants (probe-level, no full run needed)
# ----------------------------------------------------------------------
def test_tripwire_engine_time(engine, node) -> None:
    checker = InvariantChecker(interval_s=0.01)
    checker.attach(engine, node)
    engine.schedule(0.1, lambda: None)
    engine.run()
    checker._on_event(engine.now - 0.05, None)
    assert "engine-time" in checker.violation_counts


def test_tripwire_engine_accounting(engine, node) -> None:
    checker = InvariantChecker(interval_s=0.01)
    checker.attach(engine, node)
    engine.schedule(0.1, lambda: None)
    engine.run()
    checker.check_now()  # anchors _last_fired at the true count
    engine._fired -= 1
    checker.check_now()
    assert "engine-accounting" in checker.violation_counts


# ----------------------------------------------------------------------
# lifecycle contracts
# ----------------------------------------------------------------------
def test_attach_twice_is_rejected(engine, node) -> None:
    checker = InvariantChecker()
    checker.attach(engine, node)
    with pytest.raises(RuntimeError):
        checker.attach(engine, node)
    checker.detach()
    checker.detach()  # idempotent


def test_two_checkers_cannot_share_a_node(engine, node) -> None:
    first = InvariantChecker()
    first.attach(engine, node)
    second = InvariantChecker()
    with pytest.raises(SimulationError):
        second.attach(engine, node)
    first.detach()


def test_check_now_requires_attachment() -> None:
    with pytest.raises(RuntimeError):
        InvariantChecker().check_now()


def test_interval_must_be_positive() -> None:
    with pytest.raises(ValueError):
        InvariantChecker(interval_s=0.0)


def test_max_records_caps_the_violation_list(engine, node) -> None:
    checker = InvariantChecker(interval_s=0.01, max_records=3)
    checker.attach(engine, node)
    # Distinct cores => distinct dedup sites, so the cap is what binds.
    for core in node.cores:
        core.clock_mod_raw = 1 << 6
    checker.check_now()
    checker.detach()
    assert len(checker.violations) == 3
    # Every core recurs on every battery (check_now + the one in detach).
    assert checker.violation_counts["clockmod-legality"] >= len(node.cores)


def test_on_violation_callback_fires(engine, node) -> None:
    seen = []
    checker = InvariantChecker(on_violation=seen.append)
    checker.attach(engine, node)
    node.cores[0].duty = 2.0
    checker.check_now()
    checker.detach()
    assert any(v.invariant == "duty-legality" for v in seen)
