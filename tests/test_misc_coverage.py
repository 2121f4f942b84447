"""Coverage for small helpers: perfctr windows, app helpers, meters,
engine tracing, CLI export."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.base import equal_shares, proportional_shares
from repro.errors import ConfigError, MeasurementError
from repro.hw.core import Segment
from repro.hw.node import Node
from repro.hw.perfctr import (
    CounterSnapshot,
    SocketCounters,
    snapshot,
    window_average,
)
from repro.rcr import meters
from repro.rcr.blackboard import Blackboard
from repro.sim.engine import Engine
from repro.sim.trace import Trace


# ---------------------------------------------------------------- perfctr
def _interval(node, core, dt):
    """Start a long segment on ``core``, then run ``dt`` seconds on.

    Returns socket 0's contention and power over the interval: both stay
    constant, since nothing re-prices the node until the next mutation.
    """
    node.assign(core, Segment(100.0, mem_fraction=0.5 + 0.25 * core))
    mem, power = node.memory_state(0), node.power_w(0)
    node.engine.run(until=node.engine.now + dt)
    return mem, power


def test_socket_counters_accumulate():
    node = Node(Engine(), warm=False)
    mem1, p1 = _interval(node, 0, 2.0)
    mem2, p2 = _interval(node, 1, 1.0)
    node.counters_snapshot(0)  # syncs the integrals to now
    counters = node.counters[0]
    assert mem2.demand > mem1.demand > 0.0 and p2 > p1
    assert counters.demand_integral == pytest.approx(2.0 * mem1.demand + mem2.demand)
    assert counters.bw_util_integral == pytest.approx(2.0 * mem1.bw_util + mem2.bw_util)
    assert counters.power_integral_j == pytest.approx(2.0 * p1 + p2)
    assert counters.elapsed_s == pytest.approx(3.0)


def test_window_average_between_snapshots():
    node = Node(Engine(), warm=False)
    _interval(node, 0, 1.0)
    before = node.counters_snapshot(0)
    mem, power = _interval(node, 1, 1.0)
    window = node.window(0, before)
    assert window.elapsed_s == pytest.approx(1.0)
    assert window.avg_demand == pytest.approx(mem.demand)
    assert window.avg_bw_util == pytest.approx(mem.bw_util)
    assert window.avg_power_w == pytest.approx(power)


def test_window_average_zero_length_is_zeros():
    counters = SocketCounters()
    snap = snapshot(counters)
    window = window_average(snap, snap)
    assert window.avg_power_w == 0.0
    assert window.elapsed_s == 0.0


# -------------------------------------------------------------- app base
def test_equal_shares_sum():
    shares = equal_shares(10.0, 4)
    assert shares == [2.5] * 4
    with pytest.raises(ConfigError):
        equal_shares(1.0, 0)


@given(
    total=st.floats(min_value=0.0, max_value=1e6),
    weights=st.lists(st.floats(min_value=0.01, max_value=100.0),
                     min_size=1, max_size=20),
)
def test_proportional_shares_property(total, weights):
    shares = proportional_shares(total, weights)
    assert sum(shares) == pytest.approx(total, rel=1e-9, abs=1e-6)
    # Order preserved: bigger weight, bigger share.
    for (wa, sa), (wb, sb) in zip(zip(weights, shares), zip(weights[1:], shares[1:])):
        if wa < wb:
            assert sa <= sb + 1e-9


def test_proportional_shares_errors():
    with pytest.raises(ConfigError):
        proportional_shares(1.0, [])
    with pytest.raises(ConfigError):
        proportional_shares(1.0, [0.0, 0.0])


# ----------------------------------------------------------------- meters
def test_meter_paths_are_stable():
    """The schema is load-bearing: daemon and clients share these names."""
    assert meters.socket_power_w(0) == "node.socket.0.power_w"
    assert meters.socket_energy_j(1) == "node.socket.1.energy_j"
    assert meters.socket_mem_concurrency(0).endswith("mem_concurrency")
    assert meters.NODE_POWER_W == "node.power_w"


def test_blackboard_leaf_collision_detected():
    bb = Blackboard()
    bb.publish("a.b", 1.0, 0.0)
    bb.publish("a.b.c", 2.0, 0.0)  # "a.b" is both leaf and branch
    with pytest.raises(MeasurementError):
        bb.tree()


# ------------------------------------------------------- engine + tracing
def test_engine_records_trace_when_enabled():
    trace = Trace(enabled=True)
    engine = Engine(trace=trace)
    engine.schedule(1.0, lambda: None, label="hello")
    engine.run()
    events = trace.filter("event")
    assert any(r.detail == "hello" for r in events)


def test_engine_trace_disabled_is_silent():
    engine = Engine()  # default trace disabled
    engine.schedule(1.0, lambda: None, label="quiet")
    engine.run()
    assert len(engine.trace) == 0


# -------------------------------------------------------------------- CLI
def test_cli_export_throttle_json(capsys, tmp_path):
    from repro.cli import main

    out = tmp_path / "t6.json"
    assert main(["export", "table6", "-o", str(out)]) == 0
    assert out.exists()
    import json

    payload = json.loads(out.read_text())
    assert payload["app"] == "bots-health"


def test_cli_throttle_single_app(capsys):
    from repro.cli import main

    assert main(["throttle", "bots-health"]) == 0
    out = capsys.readouterr().out
    assert "TABLE VI" in out
    assert "Dynamic" in out
