"""Telemetry bus and sinks: event sequence, rendering, self-measurement."""

import io
import json

import pytest

from repro.harness import (
    BatchExecutor,
    JsonlSink,
    ListSink,
    ProgressSink,
    RunSpec,
    TelemetryBus,
)
from repro.harness import telemetry as tel

pytestmark = pytest.mark.harness


def _sweep(bus, specs=None):
    specs = specs if specs is not None else [RunSpec("mergesort"), RunSpec("nqueens")]
    return BatchExecutor(workers=0, bus=bus).run(specs, sweep="unit")


def test_serial_sweep_event_sequence():
    sink = ListSink()
    _sweep(TelemetryBus([sink]))
    names = [type(e).__name__ for e in sink.events]
    assert names == [
        "SweepStarted",
        "RunStarted", "RunFinished", "SweepProgress",
        "RunStarted", "RunFinished", "SweepProgress",
        "SweepFinished",
    ]
    started = sink.of_type(tel.SweepStarted)[0]
    assert started.sweep == "unit" and started.total == 2
    assert not started.cache
    done = sink.of_type(tel.SweepProgress)
    assert [e.done for e in done] == [1, 2]


def test_sweep_finished_reports_telemetry_overhead():
    sink = ListSink()
    bus = TelemetryBus([sink])
    _sweep(bus)
    [summary] = sink.of_type(tel.SweepFinished)
    assert summary.executed == 2 and summary.failed == 0
    assert summary.wall_s > 0
    # The bus timed its own dispatch and the cost is a sliver of the wall.
    # (bus.overhead_s keeps growing as the summary event itself is
    # dispatched, so it bounds the reported figure from above.)
    assert 0 < summary.telemetry_s <= bus.overhead_s
    assert summary.telemetry_s < summary.wall_s
    # events was sampled just before the summary itself was emitted.
    assert summary.events == bus.events_emitted - 1
    # A second sweep on the same bus reports its own events, not the
    # bus's lifetime total.
    _sweep(bus)
    first, second = sink.of_type(tel.SweepFinished)
    assert second.events == first.events == 7
    assert 0 < second.telemetry_s < bus.overhead_s - first.telemetry_s


def test_sinkless_bus_counts_but_pays_nothing():
    bus = TelemetryBus()
    _sweep(bus)
    assert bus.events_emitted == 8
    assert bus.overhead_s == 0.0


def test_subscribe_unsubscribe():
    bus = TelemetryBus()
    sink = ListSink()
    bus.subscribe(sink)
    bus.emit(tel.Note("hello"))
    bus.unsubscribe(sink)
    bus.emit(tel.Note("unseen"))
    assert [e.message for e in sink.events] == ["hello"]
    assert bus.sinks == ()


def test_progress_sink_rendering():
    out = io.StringIO()
    _sweep(TelemetryBus([ProgressSink(out)]))
    text = out.getvalue()
    assert "sweep unit: 2 runs (serial)" in text
    assert "[  1/2] mergesort gcc/O2 t16" in text
    assert "telemetry" in text
    # Cached lines are marked as such.
    out2 = io.StringIO()
    sink = ProgressSink(out2)
    sink.handle(tel.RunCached(sweep="unit", index=0, total=1, label="x",
                              time_s=1.0, energy_j=2.0, watts=3.0))
    assert "(cached)" in out2.getvalue()


def test_jsonl_sink_writes_parseable_events(tmp_path):
    path = tmp_path / "events" / "log.jsonl"
    sink = JsonlSink(path)
    _sweep(TelemetryBus([sink]))
    sink.close()
    lines = path.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert len(events) == 8
    assert events[0]["event"] == "SweepStarted"
    assert events[-1]["event"] == "SweepFinished"
    finished = [e for e in events if e["event"] == "RunFinished"]
    assert {e["label"] for e in finished} == {
        "mergesort gcc/O2 t16", "nqueens gcc/O2 t16",
    }
    assert all(e["energy_j"] > 0 for e in finished)
    # Appending is the contract: a second sweep extends the log.
    sink2 = JsonlSink(path)
    _sweep(TelemetryBus([sink2]))
    sink2.close()
    assert len(path.read_text().splitlines()) == 16


# ------------------------------------------------------------ narrators
def _sched_events():
    return [
        tel.JobSubmitted(index=3, app="bots-fib", threads=16, time_s=1.5),
        tel.JobRejected(index=4, app="lulesh", queue_depth=2, time_s=2.0),
        tel.JobPlaced(index=3, app="bots-fib", node="n1", policy="fifo",
                      wait_s=0.25, time_s=1.75),
        tel.SchedJobFinished(index=3, app="bots-fib", node="n1",
                             service_s=4.5, energy_j=321.25, watts=71.4,
                             time_s=6.25),
        tel.SchedFinished(policy="fifo", profile="bursty", submitted=5,
                          completed=4, rejected=1, makespan_s=12.34,
                          peak_power_w=180.06, budget_w=200.0),
    ]


def test_sched_progress_sink_line_formats():
    out, quiet = io.StringIO(), io.StringIO()
    sinks = (tel.SchedProgressSink(out), ProgressSink(quiet))
    for event in _sched_events():
        for sink in sinks:
            sink.handle(event)
    sinks[0].handle(tel.SweepStarted(sweep="x", total=1, workers=0))
    assert out.getvalue().splitlines() == [
        "t=   1.50s  submit j3   bots-fib (t16)",
        "t=   2.00s  REJECT j4   lulesh (queue full at 2)",
        "t=   1.75s  place  j3   bots-fib -> n1 [fifo] after 0.25s queued",
        "t=   6.25s  done   j3   bots-fib on n1: 4.50 s, 321.2 J, 71.4 W",
        "sched [fifo/bursty]: 4/5 jobs (1 rejected), makespan 12.3 s, "
        "peak 180.1 W of 200.0 W budget",
    ]
    # ``repro-paper validate`` sends scheduler events through the
    # harness narrator, which must stay silent on them.
    assert quiet.getvalue() == ""


def test_service_event_printer_keeps_gauges_and_harness_events_quiet():
    from repro.service.client import ServiceEventPrinter

    out = io.StringIO()
    printer = ServiceEventPrinter(out)
    printer.handle(tel.QueueDepthChanged(depth=1, in_flight=2))
    printer.handle(tel.SweepStarted(sweep="x", total=1, workers=0))
    printer.handle(tel.Note("hello"))
    assert out.getvalue() == ""
    printer.handle(tel.JobCancelled(job="j-000001", digest="abc"))
    assert out.getvalue() == "[service] JobCancelled job=j-000001 digest=abc\n"
