"""BatchExecutor: parallel == serial, retries, fallbacks, ordering."""

import multiprocessing
import os

import pytest

from repro.errors import HarnessError
from repro.harness import (
    BatchExecutor,
    ListSink,
    ResultCache,
    RunSpec,
    TelemetryBus,
)
from repro.harness import telemetry as tel
from repro.experiments.table1 import table1_specs

pytestmark = pytest.mark.harness


def _slice_specs():
    # A small Table I slice: the exact specs the real experiment sweeps.
    return table1_specs(("mergesort", "nqueens"), 16)


def test_parallel_sweep_is_bit_identical_to_serial():
    specs = _slice_specs()
    serial = BatchExecutor(workers=0).run(specs, sweep="serial")
    parallel = BatchExecutor(workers=4).run(specs, sweep="parallel")
    assert len(serial) == len(parallel) == len(specs)
    for spec, s, p in zip(specs, serial, parallel):
        assert s.spec == spec  # input order preserved
        assert p == s  # bit-identical measurement (wall_s excluded)
    assert not multiprocessing.active_children()  # every slot reaped


def test_serial_retry_budget_then_harness_error():
    sink = ListSink()
    harness = BatchExecutor(workers=0, bus=TelemetryBus([sink]), retries=2)
    with pytest.raises(HarnessError) as err:
        harness.run([RunSpec("no-such-app")], sweep="doomed")
    assert "no-such-app" in str(err.value)
    assert err.value.__cause__ is not None
    assert len(sink.of_type(tel.RunRetried)) == 2
    [failed] = sink.of_type(tel.RunFailed)
    assert failed.attempts == 3
    [summary] = sink.of_type(tel.SweepFinished)
    assert summary.failed == 1 and summary.retried == 2


def test_pool_retry_budget_then_harness_error():
    sink = ListSink()
    harness = BatchExecutor(workers=2, bus=TelemetryBus([sink]), retries=1)
    bad = [RunSpec("no-such-app", seed=s) for s in (0, 1)]
    with pytest.raises(HarnessError):
        harness.run(bad, sweep="doomed-pool")
    assert len(sink.of_type(tel.RunFailed)) == 2
    assert len(sink.of_type(tel.RunRetried)) == 2


def test_mixed_failure_still_raises_but_good_runs_complete():
    sink = ListSink()
    harness = BatchExecutor(workers=0, bus=TelemetryBus([sink]), retries=0)
    with pytest.raises(HarnessError, match="1 of 2 runs failed"):
        harness.run([RunSpec("mergesort"), RunSpec("no-such-app")])
    assert len(sink.of_type(tel.RunFinished)) == 1


def test_pool_unavailable_falls_back_to_serial(monkeypatch):
    def no_fork():
        raise OSError("no processes for you")

    monkeypatch.setattr(os, "fork", no_fork)
    sink = ListSink()
    specs = _slice_specs()
    records = BatchExecutor(workers=4, bus=TelemetryBus([sink])).run(specs)
    assert all(r is not None for r in records)
    [note] = sink.of_type(tel.Note)
    assert "running serially" in note.message
    assert not multiprocessing.active_children()
    assert records == BatchExecutor(workers=0).run(specs)


def test_cached_and_executed_mix_preserves_order(tmp_path):
    cache = ResultCache(root=tmp_path)
    specs = _slice_specs()
    # Pre-warm only the middle of the sweep.
    warm = BatchExecutor(workers=0, cache=cache)
    warm.run(specs[1:3], sweep="warmup")
    sink = ListSink()
    harness = BatchExecutor(workers=0, cache=cache, bus=TelemetryBus([sink]))
    records = harness.run(specs, sweep="mixed")
    assert [r.spec for r in records] == list(specs)
    assert len(sink.of_type(tel.RunCached)) == 2
    assert len(sink.of_type(tel.RunFinished)) == 2
    [summary] = sink.of_type(tel.SweepFinished)
    assert summary.cached == 2 and summary.executed == 2
    # The cached copies are the same measurements the warmup produced.
    assert records == BatchExecutor(workers=0).run(specs)


def test_run_one():
    record = BatchExecutor(workers=0).run_one(RunSpec("mergesort"))
    assert record.app == "mergesort"
    assert record.time_s > 0


def test_retries_validation():
    with pytest.raises(HarnessError):
        BatchExecutor(retries=-1)
