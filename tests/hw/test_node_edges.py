"""Node edge cases: state machine, duty interactions, accounting."""

import math

import pytest

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.hw.core import CoreState, Segment
from repro.hw.node import Node
from repro.sim.engine import Engine


def test_cannot_change_state_of_busy_core(engine, node):
    node.assign(0, Segment(1.0))
    with pytest.raises(SimulationError):
        node.set_off(0)
    with pytest.raises(SimulationError):
        node.set_idle(0)
    with pytest.raises(SimulationError):
        node.set_spin(0)


def test_duty_bounds_checked(engine, node):
    with pytest.raises(SimulationError):
        node.set_duty(0, 0.0)
    with pytest.raises(SimulationError):
        node.set_duty(0, 1.5)


@pytest.mark.parametrize("duty", [0.0, math.nan, 5.0, -1.0])
def test_spin_duty_bounds_checked(engine, node, duty):
    """``set_spin`` refuses what ``set_duty`` refuses, before any change.

    A NaN duty would price the core at NaN Watts; a zero duty would
    divide by zero once the core next runs a segment.
    """
    with pytest.raises(SimulationError, match="duty must be in"):
        node.set_spin(0, duty=duty)
    assert node.cores[0].state is CoreState.IDLE
    assert node.cores[0].duty == 1.0


def test_sync_refuses_nan_energy(engine, node):
    """A NaN power term must not reach the RAPL accumulator."""
    node._socket_power[0] = math.nan
    engine.run(until=1.0)
    with pytest.raises(SimulationError, match="energy increment"):
        node.energy_j(0)
    assert node.rapl[0].energy_j == 0.0


def test_off_core_draws_nothing_and_heats_nothing(engine):
    """A machine with every core parked draws only uncore power."""
    eng_a, eng_b = Engine(), Engine()
    all_off = Node(eng_a)
    for i in range(16):
        all_off.set_off(i)
    idle = Node(eng_b)
    eng_a.run(until=2.0)
    eng_b.run(until=2.0)
    e_off = all_off.total_energy_j()
    e_idle = idle.total_energy_j()
    assert e_off < e_idle
    # 16 idle cores at 0.4 W for 2 s ~ 13 J difference.
    assert e_idle - e_off == pytest.approx(16 * 0.4 * 1.01 * 2.0, rel=0.05)


def test_duty_on_memory_bound_segment_barely_matters(engine, node):
    """Duty modulation gates the clock, not DRAM: a nearly pure memory
    segment finishes almost as fast at 1/2 duty."""
    done = {}
    for idx, duty in ((0, 1.0), (8, 0.5)):  # different sockets: no mixing
        node.set_duty(idx, duty)
        node.assign(idx, Segment(1.0, mem_fraction=0.95),
                    on_complete=lambda idx=idx: done.setdefault(idx, engine.now))
    engine.run()
    assert done[8] / done[0] == pytest.approx((0.05 / 0.5 + 0.95) / 1.0, rel=1e-6)


def test_completion_batching_same_instant(engine, node):
    """Identical segments on one socket finish in a single event batch."""
    finished = []
    for i in range(8):
        node.assign(i, Segment(1.0), on_complete=lambda i=i: finished.append(i))
    engine.run()
    assert sorted(finished) == list(range(8))
    assert engine.now == pytest.approx(1.0)


def test_spin_duty_parameter(engine, node):
    node.set_spin(2, duty=1 / 4)
    assert node.cores[2].duty == pytest.approx(0.25)
    node.set_idle(2)
    node.set_spin(2)  # without duty: keeps prior value
    assert node.cores[2].duty == pytest.approx(0.25)


def test_refresh_idempotent(engine, node):
    node.assign(0, Segment(1.0))
    engine.run(until=0.5)
    node.refresh()
    e1 = node.total_energy_j()
    node.refresh()
    node.refresh()
    assert node.total_energy_j() == e1


def test_busy_accounting_excludes_idle_time(engine, node):
    node.assign(0, Segment(0.5))
    engine.run(until=2.0)
    node.refresh()
    assert node.cores[0].busy_seconds == pytest.approx(0.5)
    assert node.cores[0].work_done_solo_seconds == pytest.approx(0.5)
    assert node.cores[0].segments_completed == 1


def test_memory_state_query(engine, node):
    # Direct assignment is socket-explicit (cores 0-3 live on socket 0;
    # scatter placement is the scheduler's job, not the node's).
    for i in range(4):
        node.assign(i, Segment(5.0, mem_fraction=1.0))
    assert node.memory_state(0).demand == pytest.approx(4 * 10.0)
    assert node.memory_state(1).demand == pytest.approx(0.0)
    assert node.memory_state(0).stretch > 1.0  # 40 refs > knee of 20


def test_single_socket_machine():
    engine = Engine()
    node = Node(engine, MachineConfig(sockets=1, cores_per_socket=4))
    for i in range(4):
        node.assign(i, Segment(1.0, mem_fraction=0.5))
    engine.run()
    assert node.total_energy_j() > 0
    assert len(node.rapl) == 1


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(-1.0)
    with pytest.raises(ValueError):
        Segment(1.0, mem_fraction=1.5)
    with pytest.raises(ValueError):
        Segment(1.0, power_scale=0.0)
    with pytest.raises(ValueError):
        Segment(1.0, contention_exponent=0.5)
    with pytest.raises(ValueError):
        Segment(1.0, coherence_penalty=-0.1)


def test_core_state_after_off_on_cycle(engine, node):
    node.set_off(7)
    assert node.cores[7].state is CoreState.OFF
    node.set_idle(7)
    done = []
    node.assign(7, Segment(0.1), on_complete=lambda: done.append(True))
    engine.run()
    assert done == [True]
