"""RCR stack: blackboard, daemon, region client, wrap-aware energy."""

import pytest

from repro.errors import MeasurementError
from repro.hw.core import Segment
from repro.hw.msr import MSRFile, MSR_PKG_ENERGY_STATUS
from repro.measure.energy import EnergyReader, MultiSocketEnergyReader
from repro.rcr import Blackboard, MeterRecord, RCRDaemon, RegionClient, meters
from repro.units import RAPL_COUNTER_MODULUS, RAPL_ENERGY_UNIT_J


# ------------------------------------------------------------ blackboard
def test_blackboard_publish_read():
    bb = Blackboard()
    bb.publish("node.socket.0.power_w", 75.5, timestamp=1.0)
    record = bb.read("node.socket.0.power_w")
    assert record.value == 75.5
    assert record.timestamp == 1.0
    assert record.version == 1


def test_meter_record_is_immutable():
    bb = Blackboard()
    record = bb.publish("node.power_w", 3, timestamp=0.5)
    assert record == MeterRecord("node.power_w", 3.0, 0.5, 1)
    assert type(record.value) is float
    with pytest.raises(AttributeError):
        record.value = 9.0
    with pytest.raises(AttributeError):
        record.version = 7
    assert bb.read("node.power_w") is record


def test_blackboard_versions_increase():
    bb = Blackboard()
    bb.publish("a", 1.0, 0.0)
    bb.publish("a", 2.0, 0.1)
    assert bb.read("a").version == 2
    assert bb.read("a").value == 2.0


def test_blackboard_missing_meter():
    bb = Blackboard()
    with pytest.raises(MeasurementError):
        bb.read("nope")
    assert bb.read_value("nope", default=7.0) == 7.0
    with pytest.raises(MeasurementError):
        bb.read_value("nope")


def test_blackboard_hierarchy():
    bb = Blackboard()
    bb.publish("node.socket.0.power_w", 70.0, 0.0)
    bb.publish("node.socket.1.power_w", 71.0, 0.0)
    bb.publish("node.power_w", 141.0, 0.0)
    tree = bb.tree()
    assert tree["node"]["socket"]["0"]["power_w"] == 70.0
    assert tree["node"]["power_w"] == 141.0
    assert bb.paths("node.socket") == [
        "node.socket.0.power_w",
        "node.socket.1.power_w",
    ]
    assert len(bb) == 3
    assert bb.has("node.power_w")


def test_blackboard_rejects_empty_path():
    with pytest.raises(MeasurementError):
        Blackboard().publish("", 1.0, 0.0)


# ------------------------------------------------- wrap-aware energy read
class _FakeCounter:
    """Synthetic wrapping MSR counter for the reader tests."""

    def __init__(self):
        self.ticks = 0
        self.msr = MSRFile()
        self.msr.map_package(
            0, MSR_PKG_ENERGY_STATUS, reader=lambda: self.ticks % RAPL_COUNTER_MODULUS
        )


def test_energy_reader_accumulates():
    fake = _FakeCounter()
    reader = EnergyReader(fake.msr, 0)
    fake.ticks += 1000
    assert reader.poll() == pytest.approx(1000 * RAPL_ENERGY_UNIT_J)
    fake.ticks += 500
    assert reader.poll() == pytest.approx(1500 * RAPL_ENERGY_UNIT_J)
    assert reader.wraps == 0


def test_energy_reader_handles_wrap():
    fake = _FakeCounter()
    fake.ticks = RAPL_COUNTER_MODULUS - 10
    reader = EnergyReader(fake.msr, 0)
    fake.ticks += 50  # crosses the 32-bit boundary
    assert reader.poll() == pytest.approx(50 * RAPL_ENERGY_UNIT_J)
    assert reader.wraps == 1


def test_energy_reader_multiple_wraps_across_polls():
    fake = _FakeCounter()
    reader = EnergyReader(fake.msr, 0)
    total = 0
    for _ in range(5):
        fake.ticks += RAPL_COUNTER_MODULUS - 1  # just under one wrap per poll
        total += RAPL_COUNTER_MODULUS - 1
        reader.poll()
    assert reader.total_joules == pytest.approx(total * RAPL_ENERGY_UNIT_J)
    assert reader.wraps == 4  # every poll after the first wrapped


def test_multisocket_reader():
    with pytest.raises(MeasurementError):
        MultiSocketEnergyReader(MSRFile(), 0)


# ----------------------------------------------------------------- daemon
def _stack(runtime):
    bb = Blackboard()
    daemon = RCRDaemon(runtime.engine, runtime.node, bb)
    daemon.start()
    return bb, daemon


def test_daemon_ticks_at_period(runtime):
    bb, daemon = _stack(runtime)
    runtime.engine.run(until=1.05)
    assert daemon.ticks == pytest.approx(11, abs=1)  # initial + 10 periodic
    assert bb.read_value(meters.DAEMON_PERIOD_S) == 0.1


def test_daemon_power_matches_ground_truth(runtime):
    bb, daemon = _stack(runtime)
    for i in range(8):
        runtime.node.assign(i, Segment(2.0, mem_fraction=0.3))
    runtime.engine.run(until=1.0)
    measured = bb.read_value(meters.NODE_POWER_W)
    truth = runtime.node.total_power_w()
    assert measured == pytest.approx(truth, rel=0.05)


def test_daemon_energy_is_cumulative(runtime):
    bb, daemon = _stack(runtime)
    runtime.engine.run(until=0.55)
    early = bb.read_value(meters.socket_energy_j(0))
    runtime.engine.run(until=1.05)
    late = bb.read_value(meters.socket_energy_j(0))
    assert late > early > 0


def test_daemon_memory_concurrency_meter(runtime):
    bb, daemon = _stack(runtime)
    for i in range(8):  # socket 0 fully memory-bound
        runtime.node.assign(i, Segment(5.0, mem_fraction=1.0))
    runtime.engine.run(until=0.5)
    demand = bb.read_value(meters.socket_mem_concurrency(0))
    assert demand == pytest.approx(80.0, rel=0.1)
    assert bb.read_value(meters.socket_bw_util(0)) == pytest.approx(1.0, rel=0.05)
    assert bb.read_value(meters.socket_mem_concurrency(1)) == pytest.approx(0.0, abs=1.0)


def test_daemon_temperature_meter(runtime):
    bb, daemon = _stack(runtime)
    runtime.engine.run(until=0.2)
    temp = bb.read_value(meters.socket_temp_degc(0))
    assert 40.0 < temp < 90.0


def test_daemon_stop_cancels_ticks(runtime):
    bb, daemon = _stack(runtime)
    runtime.engine.run(until=0.35)
    ticks = daemon.ticks
    daemon.stop()
    runtime.engine.run(until=1.0)
    assert daemon.ticks == ticks
    assert not daemon.running


def test_daemon_double_start_rejected(runtime):
    bb, daemon = _stack(runtime)
    with pytest.raises(MeasurementError):
        daemon.start()


def test_daemon_rejects_bad_period(runtime):
    with pytest.raises(MeasurementError):
        RCRDaemon(runtime.engine, runtime.node, Blackboard(), period_s=0.0)


@pytest.mark.parametrize("period_s", [float("nan"), float("inf")])
def test_daemon_rejects_non_finite_period(runtime, period_s):
    with pytest.raises(MeasurementError, match="period"):
        RCRDaemon(runtime.engine, runtime.node, Blackboard(), period_s=period_s)


# ----------------------------------------------------------------- client
def test_region_report_tracks_energy(runtime):
    bb, daemon = _stack(runtime)
    client = RegionClient(runtime.engine, bb, 2, daemon=daemon)
    client.start("work")
    for i in range(16):
        runtime.node.assign(i, Segment(1.0, mem_fraction=0.0))
    runtime.engine.run(until=1.0)
    report = client.end("work")
    assert report.valid
    assert report.elapsed_s == pytest.approx(1.0)
    # ~150 W of compute for 1 s.
    assert report.energy_j == pytest.approx(150.0, abs=20.0)
    assert report.avg_watts == pytest.approx(report.energy_j / report.elapsed_s)
    assert len(report.temps_degc) == 2


def test_region_shorter_than_daemon_period_is_invalid(runtime):
    bb, daemon = _stack(runtime)
    client = RegionClient(runtime.engine, bb, 2, daemon=daemon)
    client.start("blip")
    runtime.engine.run(until=0.01)
    report = client.end("blip")
    assert not report.valid
    assert "INVALID" in str(report)


def test_region_errors(runtime):
    bb, daemon = _stack(runtime)
    client = RegionClient(runtime.engine, bb, 2)
    with pytest.raises(MeasurementError):
        client.end("never-started")
    client.start("x")
    with pytest.raises(MeasurementError):
        client.start("x")


def test_region_reports_accumulate(runtime):
    bb, daemon = _stack(runtime)
    client = RegionClient(runtime.engine, bb, 2, daemon=daemon)
    reports = []
    for name in ("a", "b"):
        client.start(name)
        runtime.engine.run(until=runtime.engine.now + 0.2)
        reports.append(client.end(name))
    assert [r.name for r in reports] == ["a", "b"]
