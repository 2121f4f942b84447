"""Timeline probe and APERF/MPERF counters."""

import pytest

from repro.analysis.timeline import Timeline, TimelineProbe, TimelineSample
from repro.errors import MeasurementError
from repro.hw.core import Segment
from repro.hw.msr import IA32_APERF, IA32_MPERF
from repro.qthreads import Spawn, Taskwait, Work
from tests.conftest import make_runtime


# ------------------------------------------------------------ APERF/MPERF
def test_aperf_equals_mperf_at_full_duty(engine, node):
    node.assign(0, Segment(1.0))
    engine.run()
    aperf = node.msr.read_core(0, IA32_APERF, privileged=True)
    mperf = node.msr.read_core(0, IA32_MPERF, privileged=True)
    assert mperf == pytest.approx(2.7e9, rel=1e-6)
    assert aperf == mperf


def test_aperf_tracks_duty_modulation(engine, node):
    node.set_spin(3, duty=1 / 32)
    engine.run(until=2.0)
    node.refresh()
    aperf = node.msr.read_core(3, IA32_APERF, privileged=True)
    mperf = node.msr.read_core(3, IA32_MPERF, privileged=True)
    assert mperf > 0
    assert aperf / mperf == pytest.approx(1 / 32, rel=1e-3)


def test_idle_core_counters_do_not_tick(engine, node):
    engine.run(until=1.0)
    node.refresh()
    assert node.msr.read_core(5, IA32_MPERF, privileged=True) == 0


# --------------------------------------------------------------- timeline
def _probe_run(threads=16, chunks=200):
    rt = make_runtime(threads)
    probe = TimelineProbe(rt.engine, rt.node, period_s=0.02)
    probe.start()

    def body():
        yield Work(0.01, mem_fraction=0.2)
        return 1

    def program():
        handles = []
        for _ in range(chunks):
            handle = yield Spawn(body())
            handles.append(handle)
        yield Taskwait()
        return len(handles)

    res = rt.run(program())
    probe.stop()
    return rt, probe, res


def test_timeline_samples_power_and_activity():
    rt, probe, res = _probe_run()
    timeline = probe.timeline
    assert len(timeline) >= 5
    assert timeline.peak_power_w > 100.0
    assert timeline.mean_power_w > 50.0
    busy = timeline.column("busy_cores")
    assert max(busy) == 16
    temps = timeline.column_socket("temp_degc", 0)
    assert all(30.0 < t < 95.0 for t in temps)


def test_timeline_ascii_and_csv():
    rt, probe, res = _probe_run(chunks=100)
    strip = probe.timeline.ascii_strip("node_power_w")
    assert "node_power_w" in strip
    csv = probe.timeline.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("time_s,node_power_w")
    assert len(lines) == len(probe.timeline) + 1


def test_timeline_column_errors():
    timeline = Timeline(period_s=0.1, samples=[
        TimelineSample(0.0, 50.0, (25.0, 25.0), 0, 0, (40.0, 40.0)),
    ])
    with pytest.raises(MeasurementError):
        timeline.column("nonexistent")
    with pytest.raises(MeasurementError):
        timeline.column("socket_power_w")  # per-socket needs column_socket
    assert timeline.column_socket("socket_power_w", 1) == [25.0]
    assert Timeline(period_s=0.1).ascii_strip() == "(empty timeline)"


def test_probe_lifecycle_errors():
    rt = make_runtime(2)
    probe = TimelineProbe(rt.engine, rt.node)
    probe.start()
    with pytest.raises(MeasurementError):
        probe.start()
    probe.stop()
    with pytest.raises(MeasurementError):
        TimelineProbe(rt.engine, rt.node, period_s=0.0)

