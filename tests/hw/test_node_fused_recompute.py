"""The node's fused rate-and-power loop against memo-free references.

``Node._recompute`` derives each busy core's speed and
``mem_wall_fraction`` and prices the core's power term in one walk per
dirty socket.  These properties drive it directly over random machine
states — every core state, modulated duty, coherence segments on both
sockets, a different temperature per socket — and require, bit for bit:

* each ``_socket_power[s]`` equals :func:`reference_socket_power_w` on a
  fresh power model at the socket's current temperature;
* each core's rate equals the invariant checker's from-scratch
  re-derivation (:func:`repro.validate.checker.rederive_rates`);
* each socket's cached contention state equals the re-derived demand.

A second recompute after the temperatures move, with only some sockets
marked dirty, checks the two pricing walks side by side: dirty sockets
through the fused rate loop, clean ones through the walk that re-prices
with cached rates.  A third, at the same instant with the temperatures
left alone, reuses the clean sockets' cached prices and minima.  A last
step mutates the machine through ``assign``/``set_idle``/``set_spin``
inside one engine event, so a single deferred recompute must find every
socket whose inputs moved — including a clean coherence socket whose
only input is the node-wide busy count.  Every socket hosting coherence
segments must then record that count as the one its rates were derived
with.

After every recompute the pending ``segment-complete`` event must sit at
``now + min(remaining / speed)`` over the busy cores, found by brute
force over the whole node.  Three fixed scenarios pin the cases the
per-socket completion cache must get right: a clean socket's cached
minimum reused at the same instant, a clean socket held at its
equilibrium temperature while time advances (a cache keyed on
temperature would reuse a stale minimum), and a clean socket re-priced
after time moves.  Two more pin the coherence rule: a completion that
lowers the busy count re-derives the other socket's coherence rates, and
one whose callback refills the core leaves them exact.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.config import PAPER_MACHINE
from repro.hw.core import CoreState, Segment
from repro.hw.node import Node
from repro.hw.power import reference_socket_power_w
from repro.sim.engine import Engine
from repro.validate.checker import rederive_contention, rederive_rates

pytestmark = pytest.mark.golden

_CORES = Node(Engine(), warm=False).topology.total_cores
_SOCKETS = Node(Engine(), warm=False).config.sockets

_duty = st.one_of(
    st.sampled_from([1.0, 1.0 / 32, 0.5, 0.875]),
    st.floats(min_value=1.0 / 32, max_value=1.0),
)
_segment = st.builds(
    Segment,
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=2.5),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=3.5)),
    st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.2)),
)
_core = st.tuples(
    st.sampled_from(
        [CoreState.OFF, CoreState.IDLE, CoreState.SPIN, CoreState.BUSY,
         CoreState.BUSY, CoreState.BUSY]
    ),
    _duty,
    _segment,
)
_temps = st.lists(
    st.floats(min_value=20.0, max_value=98.0), min_size=_SOCKETS, max_size=_SOCKETS
)


def _build(cores, temps) -> Node:
    node = Node(Engine(), warm=False)
    for core, (state, duty, seg) in zip(node.cores, cores):
        core.state = state
        core.duty = duty
        if state is CoreState.BUSY:
            core.segment = seg
            core.remaining = seg.solo_seconds
    for therm, temp in zip(node.thermal, temps):
        therm.temp_degc = temp
    node._rate_dirty = [True] * node.config.sockets
    return node


def _assert_matches_references(node: Node) -> None:
    ref_demand, busy_total = rederive_contention(node)
    rates = rederive_rates(node, ref_demand, busy_total)
    for core in node.cores:
        assert (core.speed, core.mem_wall_fraction) == rates[core.index], core
    knee = node.config.memory.knee_refs
    for s in range(node.config.sockets):
        demand = ref_demand[s]
        bw_util = 0.0 if demand <= 0 else min(1.0, demand / knee)
        mem = node._mem_state[s]
        assert (mem.demand, mem.bw_util) == (demand, bw_util)
        temp = node.thermal[s].temp_degc
        assert node._power_temp[s] == temp
        ref = reference_socket_power_w(
            node.config.power, node._socket_cores[s], bw_util, temp
        )
        assert node._socket_power[s] == ref, (s, node._socket_power[s], ref)
        if any(
            core.state is CoreState.BUSY and core.segment is not None
            and core.segment.coherence_penalty > 0.0
            for core in node._socket_cores[s]
        ):
            assert node._rates_busy_total[s] == busy_total, s


def _assert_completion_is_earliest(node: Node) -> None:
    """The one live completion event sits at the brute-force minimum."""
    dt_min = min(
        (
            core.remaining / core.speed
            for core in node.cores
            if core.state is CoreState.BUSY and core.speed > 0.0
        ),
        default=math.inf,
    )
    pending = [
        event for _, _, _, event in node.engine._heap
        if not event.cancelled and event.label == "segment-complete"
    ]
    if math.isinf(dt_min):
        assert pending == []
        return
    assert len(pending) == 1
    assert pending[0].time == node.engine.now + max(dt_min, 0.0)


_dirty = st.lists(st.booleans(), min_size=_SOCKETS, max_size=_SOCKETS)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["assign", "idle", "spin"]),
        st.integers(min_value=0, max_value=_CORES - 1),
        _segment,
        _duty,
    ),
    max_size=6,
)


def _apply(node: Node, ops) -> None:
    """Apply the valid ``ops`` through the node's public mutators."""
    for op, index, seg, duty in ops:
        state = node.cores[index].state
        if state is CoreState.BUSY:
            continue
        if op == "assign" and state is not CoreState.OFF:
            node.assign(index, seg)
        elif op == "idle":
            node.set_idle(index)
        elif op == "spin":
            node.set_spin(index, duty=duty)


@given(
    cores=st.lists(_core, min_size=_CORES, max_size=_CORES),
    temps=_temps,
    moved=_temps,
    redirty=_dirty,
    again=_dirty,
    ops=_ops,
)
def test_fused_recompute_matches_memo_free_references(
    cores, temps, moved, redirty, again, ops
):
    node = _build(cores, temps)
    node._recompute()
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)

    for therm, temp in zip(node.thermal, moved):
        therm.temp_degc = temp
    node._rate_dirty = list(redirty)
    node._recompute()
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)

    node._rate_dirty = list(again)
    node._recompute()
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)

    # All mutations in one event: one deferred recompute at its end.
    engine = node.engine
    engine.schedule(0.0, lambda: _apply(node, ops))
    engine.run(until=engine.now)
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)


def _busy_on_both_sockets(node: Node, short_s: float, long_s: float) -> None:
    """A short segment on socket 0's first core, a long one on socket 1's."""
    node.assign(node._socket_cores[0][0].index, Segment(short_s, 0.3))
    node.assign(node._socket_cores[1][0].index, Segment(long_s, 0.6))


def test_clean_socket_minimum_reused_at_the_same_instant():
    node = Node(Engine(), warm=False)
    _busy_on_both_sockets(node, 0.5, 4.0)
    _assert_completion_is_earliest(node)
    # A mutation on socket 1 alone, at the same instant: socket 0 stays
    # clean, and its cached minimum is still the node's earliest.
    node.assign(node._socket_cores[1][1].index, Segment(3.0, 0.2))
    assert node._rate_dirty == [False] * _SOCKETS
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)
    assert node._completion.time == node.cores[0].remaining / node.cores[0].speed


def test_clean_socket_at_equilibrium_rewalked_when_time_advances():
    # Without leakage a socket's power does not depend on its temperature,
    # so the RC step leaves a socket at equilibrium at the same float.
    config = dataclasses.replace(
        PAPER_MACHINE,
        power=dataclasses.replace(PAPER_MACHINE.power, leakage_per_degc=0.0),
    )
    node = Node(Engine(), config, warm=False)
    _busy_on_both_sockets(node, 2.0, 6.0)
    for s, therm in enumerate(node.thermal):
        therm.temp_degc = therm.equilibrium_degc(node._socket_power[s])
    node.refresh()
    held = [therm.temp_degc for therm in node.thermal]
    node.engine.run(until=0.75)
    node.refresh()
    assert [therm.temp_degc for therm in node.thermal] == held
    assert node._power_temp == held
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)


def test_clean_socket_repriced_after_time_moves():
    node = Node(Engine())
    _busy_on_both_sockets(node, 2.0, 6.0)
    node.set_spin(node._socket_cores[1][2].index, duty=1.0 / 32)
    node.engine.run(until=0.5)
    node.refresh()
    assert node._power_temp == [therm.temp_degc for therm in node.thermal]
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)


def test_coherence_on_both_sockets_stretches_by_node_wide_busy_count():
    """The fused loop's sigma uses the busy count of the whole node."""
    seg = Segment(1.0, 0.5, coherence_penalty=0.1)
    cores = [(CoreState.BUSY, 1.0, seg)] * 2 + [(CoreState.IDLE, 1.0, seg)] * (_CORES - 2)
    cores[_CORES - 1] = (CoreState.BUSY, 1.0, seg)  # last core: other socket
    node = _build(cores, [60.0, 70.0])
    node._recompute()
    _assert_matches_references(node)
    # Three busy cores node-wide: sigma = 1 + 0.1 * 2 for every one of them.
    wall = 0.5 + 0.5 * (1.0 + 0.1 * 2)
    assert node.cores[0].speed == 1.0 / wall
    assert node.cores[_CORES - 1].speed == 1.0 / wall


def _coherence_on_socket_1(node: Node) -> Segment:
    """Two long coherence segments on socket 1's first two cores."""
    seg = Segment(5.0, 0.5, coherence_penalty=0.1)
    for core in node._socket_cores[1][:2]:
        node.assign(core.index, seg)
        _assert_matches_references(node)
        _assert_completion_is_earliest(node)
    return seg


def test_coherence_socket_rederives_when_the_busy_count_drops():
    node = Node(Engine(), warm=False)
    short = node._socket_cores[0][0].index
    node.assign(short, Segment(0.5, 0.3))
    _assert_matches_references(node)
    _coherence_on_socket_1(node)
    # Three busy cores: sigma = 1 + 0.1 * 2 on socket 1.
    coherent = node._socket_cores[1][0]
    assert coherent.speed == 1.0 / (0.5 + 0.5 * (1.0 + 0.1 * 2))
    # The short segment completes at 0.5 s; nothing refills its core, so
    # socket 1 — untouched by the event — must re-derive at two.
    node.engine.run(until=1.0)
    assert node.cores[short].state is CoreState.IDLE
    node.refresh()
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)
    assert coherent.speed == 1.0 / (0.5 + 0.5 * (1.0 + 0.1 * 1))


def test_coherence_socket_exact_when_a_completion_refills_its_core():
    node = Node(Engine(), warm=False)
    first = node._socket_cores[0][0].index

    def refill() -> None:
        # Inside the completion event: the busy count drops and is
        # restored before the event's one deferred recompute.
        node.assign(first, Segment(2.0, 0.3))

    node.assign(first, Segment(0.5, 0.3), on_complete=refill)
    _coherence_on_socket_1(node)
    node.engine.run(until=1.0)
    assert node.cores[first].segments_completed == 1
    assert node.cores[first].state is CoreState.BUSY
    assert node._rate_dirty == [False] * _SOCKETS
    _assert_matches_references(node)
    node.refresh()
    _assert_matches_references(node)
    _assert_completion_is_earliest(node)
    assert node._socket_cores[1][0].speed == 1.0 / (0.5 + 0.5 * (1.0 + 0.1 * 2))
