"""Throttling policy, controller, and actuators."""

import pytest
from hypothesis import given, strategies as st

from repro.config import MemoryConfig, ThrottleConfig
from repro.qthreads import Work, Spawn, Taskwait
from repro.rcr import Blackboard, RCRDaemon
from repro.throttle import (
    Band,
    DvfsActuator,
    ThrottleController,
    ThrottlePolicy,
    classify,
)
from tests.conftest import make_runtime


# ----------------------------------------------------------------- policy
def test_classify_bands():
    assert classify(80.0, 50.0, 75.0) is Band.HIGH
    assert classify(75.0, 50.0, 75.0) is Band.HIGH  # >= high
    assert classify(60.0, 50.0, 75.0) is Band.MEDIUM
    assert classify(50.0, 50.0, 75.0) is Band.LOW   # <= low
    assert classify(10.0, 50.0, 75.0) is Band.LOW
    with pytest.raises(ValueError):
        classify(1.0, 10.0, 5.0)


def _policy() -> ThrottlePolicy:
    return ThrottlePolicy(ThrottleConfig(enabled=True), MemoryConfig())


def test_paper_thresholds():
    policy = _policy()
    # Section IV-A: 75 W high / 50 W low per socket; memory 75% / 25% of
    # the maximum achievable outstanding references.
    assert policy.power_band(76.0) is Band.HIGH
    assert policy.power_band(49.0) is Band.LOW
    knee = MemoryConfig().knee_refs
    assert policy.memory_band(0.8 * knee) is Band.HIGH
    assert policy.memory_band(0.2 * knee) is Band.LOW


def test_both_high_engages():
    policy = _policy()
    decision = policy.update(False, [80.0, 78.0], [18.0, 17.0])
    assert decision.throttle
    assert decision.power_band is Band.HIGH
    assert decision.memory_band is Band.HIGH


def test_both_low_disengages():
    policy = _policy()
    decision = policy.update(True, [40.0, 30.0], [2.0, 1.0])
    assert not decision.throttle


def test_medium_is_hysteresis_deadband():
    policy = _policy()
    # "The Medium range does not toggle throttling."
    assert policy.update(True, [60.0, 60.0], [10.0, 10.0]).throttle
    assert not policy.update(False, [60.0, 60.0], [10.0, 10.0]).throttle


def test_one_high_one_low_keeps_state():
    policy = _policy()
    # Power high but memory low: efficient compute — never throttle it
    # (the failure mode of the power-only policy the paper describes).
    assert not policy.update(False, [90.0, 88.0], [1.0, 1.0]).throttle
    assert policy.update(True, [90.0, 88.0], [1.0, 1.0]).throttle


def test_hottest_socket_binds():
    policy = _policy()
    decision = policy.update(False, [40.0, 80.0], [1.0, 17.0])
    assert decision.throttle
    assert decision.max_socket_power_w == 80.0


@given(
    flag=st.booleans(),
    p0=st.floats(min_value=0, max_value=200),
    p1=st.floats(min_value=0, max_value=200),
    m0=st.floats(min_value=0, max_value=160),
    m1=st.floats(min_value=0, max_value=160),
)
def test_policy_decision_is_band_consistent(flag, p0, p1, m0, m1):
    policy = _policy()
    decision = policy.update(flag, [p0, p1], [m0, m1])
    if decision.power_band is Band.HIGH and decision.memory_band is Band.HIGH:
        assert decision.throttle
    elif decision.power_band is Band.LOW and decision.memory_band is Band.LOW:
        assert not decision.throttle
    else:
        assert decision.throttle == flag


# ------------------------------------------------------------- controller
def _controlled_runtime(threads=16):
    rt = make_runtime(threads)
    bb = Blackboard()
    daemon = RCRDaemon(rt.engine, rt.node, bb)
    daemon.start()
    controller = ThrottleController(
        rt.engine, rt.scheduler, bb, ThrottleConfig(enabled=True)
    )
    controller.start()
    return rt, bb, controller


def hot_program(chunks=600, mem=0.6, ps=1.6):
    def body():
        yield Work(0.01, mem_fraction=mem, power_scale=ps)
        return 1

    def program():
        handles = []
        for _ in range(chunks):
            handle = yield Spawn(body())
            handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    return program()


def test_controller_engages_on_hot_contended_load():
    rt, bb, controller = _controlled_runtime()
    res = rt.run(hot_program())
    assert res.throttle_activations >= 1
    assert res.spin_entries >= 4
    assert controller.time_throttled_s > 0.0


def test_controller_never_engages_on_cool_load():
    rt, bb, controller = _controlled_runtime()
    res = rt.run(hot_program(chunks=300, mem=0.05, ps=0.8))
    assert res.throttle_activations == 0
    assert res.spin_entries == 0


def test_controller_decision_log():
    rt, bb, controller = _controlled_runtime()
    rt.run(hot_program(chunks=200))
    assert len(controller.decisions) >= 1
    times = [d.time_s for d in controller.decisions]
    assert times == sorted(times)


def test_controller_double_start_rejected():
    rt, bb, controller = _controlled_runtime()
    from repro.errors import MeasurementError

    with pytest.raises(MeasurementError):
        controller.start()


def test_controller_stop():
    rt, bb, controller = _controlled_runtime()
    controller.stop()
    rt.run(hot_program(chunks=100))
    assert controller.decisions == []


def test_throttled_thread_count_respected():
    rt, bb, controller = _controlled_runtime()
    observed = []

    def probe():
        observed.append(rt.scheduler.active_worker_total)
        if controller.throttling:
            rt.engine.schedule(0.05, probe)
        elif rt.engine.peek_time() is not None:
            rt.engine.schedule(0.05, probe)

    rt.engine.schedule(0.25, probe)
    rt.run(hot_program())
    if controller.time_throttled_s > 0:
        assert min(observed) >= 1
        assert min(observed) <= 12


# --------------------------------------------------------------- actuators
def test_dvfs_actuator_is_socket_global_and_slow(engine, node):
    actuator = DvfsActuator(node)
    actuator.set_frequency_ratio(0, 0.5)
    # Not yet applied: the voltage transition takes time.
    assert node.cores[0].duty == 1.0
    engine.run()
    # All cores of socket 0 slowed; socket 1 untouched.
    for i in range(8):
        assert node.cores[i].duty == pytest.approx(0.5)
    for i in range(8, 16):
        assert node.cores[i].duty == 1.0
    assert engine.now >= actuator.transition_s


def test_dvfs_rejects_bad_ratio(engine, node):
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        DvfsActuator(node).set_frequency_ratio(0, 1.5)


def test_os_off_saves_more_than_spin(engine, node):
    """Table IV: OS-level idling saves more power than the spin loop."""
    node.refresh()
    base = node.total_power_w()
    node.set_spin(4, duty=1 / 32)
    spin_power = node.total_power_w()
    node.set_idle(4)
    node.set_off(4)
    off_power = node.total_power_w()
    assert off_power < base < spin_power
