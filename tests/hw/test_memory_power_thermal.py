"""Memory contention, power, and thermal models."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import MemoryConfig, PowerConfig, ThermalConfig
from repro.errors import SimulationError
from repro.hw.core import Core, CoreState, Segment
from repro.hw.memory import MemoryModel
from repro.hw.node import Node
from repro.hw.power import PowerModel
from repro.hw.thermal import ThermalState
from repro.sim.engine import Engine


@pytest.fixture
def mm() -> MemoryModel:
    return MemoryModel(MemoryConfig())


# ---------------------------------------------------------------- memory
def test_no_stretch_below_knee(mm):
    assert mm.stretch(0.0) == 1.0
    assert mm.stretch(mm.config.knee_refs) == 1.0


def test_stretch_grows_above_knee(mm):
    assert mm.stretch(mm.config.knee_refs * 2) > 1.0


def test_stretch_exponent_override(mm):
    demand = mm.config.knee_refs * 2
    flat = mm.stretch(demand, exponent=1.0)
    steep = mm.stretch(demand, exponent=3.0)
    assert flat == pytest.approx(2.0)
    assert steep == pytest.approx(8.0)
    with pytest.raises(ValueError):
        mm.stretch(demand, exponent=0.5)


def test_bandwidth_saturates_at_knee(mm):
    knee = mm.config.knee_refs
    assert mm.bandwidth_util(knee / 2) == pytest.approx(0.5)
    assert mm.bandwidth_util(knee * 3) == 1.0
    assert mm.bandwidth_util(0.0) == 0.0


def test_core_demand_scales_with_mem_fraction(mm):
    assert mm.core_demand(0.0) == 0.0
    assert mm.core_demand(1.0) == mm.config.mlp_per_core
    with pytest.raises(ValueError):
        mm.core_demand(1.5)


def test_execution_stretch_compute_bound_scales_with_duty(mm):
    # Pure compute: duty 1/2 doubles the time; contention is irrelevant.
    assert mm.execution_stretch(0.0, 0.5, 5.0) == pytest.approx(2.0)


def test_execution_stretch_memory_term_is_duty_independent(mm):
    # Duty modulation gates the core clock, not DRAM.
    full = mm.execution_stretch(1.0, 1.0, 3.0)
    slow = mm.execution_stretch(1.0, 0.25, 3.0)
    assert full == pytest.approx(3.0)
    assert slow == pytest.approx(3.0)


@given(
    mu=st.floats(min_value=0.0, max_value=1.0),
    demand=st.floats(min_value=0.0, max_value=500.0),
    duty=st.floats(min_value=1.0 / 32.0, max_value=1.0),
)
def test_stretch_properties(mu, demand, duty):
    mm = MemoryModel(MemoryConfig())
    sigma = mm.stretch(demand)
    assert sigma >= 1.0
    stretch = mm.execution_stretch(mu, duty, sigma)
    # A segment can never run faster than solo at full duty.
    assert stretch >= 1.0 - 1e-12
    wall = mm.memory_wall_fraction(mu, duty, sigma)
    assert 0.0 <= wall <= 1.0


@given(st.floats(min_value=0, max_value=400), st.floats(min_value=0, max_value=400))
def test_stretch_monotone_in_demand(d1, d2):
    mm = MemoryModel(MemoryConfig())
    lo, hi = sorted((d1, d2))
    assert mm.stretch(lo) <= mm.stretch(hi) + 1e-12


# ----------------------------------------------------------------- power
def _core(state, duty=1.0, mu_wall=0.0, scale=1.0):
    core = Core(index=0, socket=0, state=state, duty=duty)
    if state is CoreState.BUSY:
        core.segment = Segment(1.0, 0.5, power_scale=scale)
        core.mem_wall_fraction = mu_wall
    return core


def test_off_core_draws_nothing():
    pm = PowerModel(PowerConfig())
    assert pm.core_power_w(_core(CoreState.OFF), 1.0) == 0.0


def test_idle_below_spin_below_busy():
    pm = PowerModel(PowerConfig())
    idle = pm.core_power_w(_core(CoreState.IDLE), 1.0)
    spin = pm.core_power_w(_core(CoreState.SPIN, duty=1 / 32), 1.0)
    busy = pm.core_power_w(_core(CoreState.BUSY), 1.0)
    assert idle < spin < busy


def test_spin_savings_match_paper():
    """Section IV: duty-cycle spin saves ~3 W per thread vs running, and
    the OS-off comparison implies spin costs ~2.5 W more than idle."""
    pm = PowerModel(PowerConfig())
    busy = pm.core_power_w(_core(CoreState.BUSY, mu_wall=0.3), 1.0)
    spin = pm.core_power_w(_core(CoreState.SPIN, duty=1 / 32), 1.0)
    idle = pm.core_power_w(_core(CoreState.IDLE), 1.0)
    assert busy - spin == pytest.approx(3.0, abs=1.5)
    assert spin - idle == pytest.approx(2.55, abs=0.8)


def test_stalled_core_draws_less_than_issuing_core():
    pm = PowerModel(PowerConfig())
    issuing = pm.core_power_w(_core(CoreState.BUSY, mu_wall=0.0), 1.0)
    stalled = pm.core_power_w(_core(CoreState.BUSY, mu_wall=1.0), 1.0)
    assert stalled < issuing


def test_power_scale_multiplies_active_power():
    pm = PowerModel(PowerConfig())
    base = pm.core_power_w(_core(CoreState.BUSY, scale=1.0), 1.0)
    hot = pm.core_power_w(_core(CoreState.BUSY, scale=1.5), 1.0)
    assert hot == pytest.approx(1.5 * base)


def test_socket_power_idle_machine_near_paper_baseline():
    # The idle two-socket machine draws ~45-50 W (mergesort's serial
    # phases measured ~55-60 W with one or two cores active).
    pm = PowerModel(PowerConfig())
    cores = [_core(CoreState.IDLE) for _ in range(8)]
    socket = pm.socket_power_w(cores, 0.0, 60.0)
    assert 2 * socket == pytest.approx(47.0, abs=5.0)


def test_sixteen_compute_cores_near_150w():
    pm = PowerModel(PowerConfig())
    cores = [_core(CoreState.BUSY) for _ in range(8)]
    socket = pm.socket_power_w(cores, 0.0, 60.0)
    assert 2 * socket == pytest.approx(150.0, abs=12.0)


def test_leakage_increases_with_temperature():
    pm = PowerModel(PowerConfig())
    cores = [_core(CoreState.IDLE) for _ in range(8)]
    cold = pm.socket_power_w(cores, 0.0, 30.0)
    warm = pm.socket_power_w(cores, 0.0, 70.0)
    assert warm > cold


def test_leakage_factor_floor():
    pm = PowerModel(PowerConfig())
    assert pm.leakage_factor(-1000.0) == pytest.approx(0.1)


# --------------------------------------------------------------- thermal
def test_thermal_starts_at_ambient():
    therm = ThermalState(ThermalConfig())
    assert therm.temp_degc == ThermalConfig().ambient_degc


def _cold_node() -> Node:
    """An idle node at ambient: each socket holds its priced idle power."""
    return Node(Engine(), warm=False)


def _advance(node: Node, dt: float) -> None:
    """Move simulated time ``dt`` seconds on; no node query runs."""
    node.engine.run(until=node.engine.now + dt)


def test_thermal_relaxes_to_equilibrium():
    node = _cold_node()
    power = node._socket_power[0]
    _advance(node, 1000.0)  # many time constants, one sync
    assert node.temp_degc(0) == pytest.approx(
        node.thermal[0].equilibrium_degc(power), abs=0.01
    )


def test_thermal_step_is_exact_exponential():
    cfg = ThermalConfig()
    node = _cold_node()
    power, dt = node._socket_power[0], 3.0
    t_eq = node.thermal[0].equilibrium_degc(power)
    expected = t_eq + (cfg.ambient_degc - t_eq) * math.exp(-dt / cfg.time_constant_s)
    _advance(node, dt)
    assert node.temp_degc(0) == expected


def test_thermal_split_steps_equal_single_step():
    a = _cold_node()
    b = _cold_node()
    _advance(a, 10.0)
    for _ in range(100):
        _advance(b, 0.1)
        b.temp_degc(0)  # one sync per step
    assert a.temp_degc(0) == pytest.approx(b.temp_degc(0), rel=1e-9)


def test_thermal_zero_dt_is_noop():
    node = _cold_node()
    _advance(node, 1.0)
    before = node.temp_degc(0)
    assert node.temp_degc(0) == before  # second sync at the same instant
    with pytest.raises(SimulationError):
        node.engine.schedule(-1.0, lambda: None)  # time cannot run back


def test_therm_status_roundtrip():
    cfg = ThermalConfig()
    therm = ThermalState(cfg, initial_degc=63.4)
    raw = therm.therm_status_raw()
    decoded = ThermalState.decode_therm_status(raw, cfg.tjmax_degc)
    assert decoded == pytest.approx(63.4, abs=1.0)  # 1 degC quantization


def test_warm_to_steady_state():
    therm = ThermalState(ThermalConfig())
    therm.warm_to_steady_state(70.0)
    assert therm.temp_degc == pytest.approx(therm.equilibrium_degc(70.0))
