"""Worker-slot hardening: worker kills, poison jobs, cancellation.

A parallel sweep runs each spec in its own slot's child, one at a time.
A child dying mid-sweep (OOM killer, operator ``kill -9``) costs only the
spec it held: that spec alone is requeued on a fresh child, the other
slots run on undisturbed, and a spec that keeps killing its child is
failed as poison rather than requeued forever.  No child outlives its
sweep, however the sweep ends.
"""

import dataclasses
import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import HarnessError, SweepCancelled, WorkerCrashed
from repro.harness import (
    BatchExecutor,
    ListSink,
    ResultCache,
    RunSpec,
    TelemetryBus,
)
from repro.harness import telemetry as tel

pytestmark = pytest.mark.harness


@dataclasses.dataclass(frozen=True)
class KillerSpec:
    """Kills its worker until ``marker`` exists (then runs for real).

    ``deaths`` controls how many attempts die: each fatal attempt appends
    one byte to the marker file before ``os._exit``, so the (forked)
    worker's suicide note survives it.  Picklable; ``execute()`` rides
    the normal ``execute_spec`` dispatch.
    """

    marker: str
    deaths: int = 1
    seed: int = 0
    #: Grace before dying, so the other slot is mid-run at the death.
    delay_s: float = 0.5

    def describe(self) -> str:
        return f"killer[deaths={self.deaths} seed={self.seed}]"

    def execute(self):
        time.sleep(self.delay_s)
        try:
            size = os.path.getsize(self.marker)
        except OSError:
            size = 0
        if size < self.deaths:
            with open(self.marker, "ab") as fh:
                fh.write(b"x")
            os._exit(43)  # no result, no exception: a hard worker loss
        from repro.harness import execute_spec

        return execute_spec(RunSpec("nqueens", scale=0.05, seed=self.seed))


@dataclasses.dataclass(frozen=True)
class CancelSpec:
    """Serial-path spec that trips the sweep's cancel event when run."""

    seed: int = 0
    cancel: threading.Event = dataclasses.field(default_factory=threading.Event)

    def describe(self) -> str:
        return f"cancel[seed={self.seed}]"

    def execute(self):
        self.cancel.set()
        from repro.harness import execute_spec

        return execute_spec(RunSpec("nqueens", scale=0.05, seed=self.seed))


def _fast(seed: int) -> RunSpec:
    return RunSpec("nqueens", scale=0.05, seed=seed)


def test_worker_kill_requeues_only_the_lost_run(tmp_path):
    sink = ListSink()
    harness = BatchExecutor(workers=2, bus=TelemetryBus([sink]))
    specs = [_fast(1), KillerSpec(str(tmp_path / "die"), deaths=1),
             _fast(2), _fast(3)]
    records = harness.run(specs, sweep="chaos")
    assert len(records) == 4 and all(r is not None for r in records)
    assert records[1].energy_j > 0.0  # the killed run finished on retry
    # Only the killer is requeued: its death costs no other spec.
    requeued = sink.of_type(tel.RunRequeued)
    assert {e.index for e in requeued} == {1}
    assert [e.redelivery for e in requeued] == [1]
    assert not sink.of_type(tel.RunFailed)
    started = [e.index for e in sink.of_type(tel.RunStarted)]
    assert sorted(started) == [0, 1, 2, 3]  # once each, killer included
    finished = [e.index for e in sink.of_type(tel.RunFinished)]
    assert sorted(finished) == [0, 1, 2, 3]  # each exactly once
    [summary] = sink.of_type(tel.SweepFinished)
    assert summary.executed == 4 and summary.failed == 0
    assert not multiprocessing.active_children()


def test_poison_job_fails_after_redelivery_budget(tmp_path):
    sink = ListSink()
    harness = BatchExecutor(workers=2, bus=TelemetryBus([sink]),
                            max_requeues=1)
    specs = [_fast(1), KillerSpec(str(tmp_path / "die"), deaths=99), _fast(2)]
    with pytest.raises(HarnessError) as err:
        harness.run(specs, sweep="poison")
    assert "poison" in str(err.value)
    assert isinstance(err.value.__cause__, WorkerCrashed)
    # The poison spec is redelivered its budget's worth, then failed.
    poison_requeues = [e for e in sink.of_type(tel.RunRequeued)
                       if e.index == 1]
    assert len(poison_requeues) == 1
    [failed] = sink.of_type(tel.RunFailed)
    assert failed.index == 1
    # The innocent bystanders still completed.
    finished = sorted(e.index for e in sink.of_type(tel.RunFinished))
    assert finished == [0, 2]
    assert not multiprocessing.active_children()


def test_cancel_mid_sweep_raises_and_keeps_completed_runs():
    sink = ListSink()
    cancel = threading.Event()
    harness = BatchExecutor(workers=0, bus=TelemetryBus([sink]))
    specs = [CancelSpec(seed=1, cancel=cancel), _fast(2), _fast(3)]
    with pytest.raises(SweepCancelled, match="2 of 3"):
        harness.run(specs, sweep="abandoned", cancel=cancel)
    # The first run completed (and was narrated) before the abort.
    assert [e.index for e in sink.of_type(tel.RunFinished)] == [0]
    assert [e.index for e in sink.of_type(tel.RunStarted)] == [0]


class CancelOnFirstFinish:
    """Bus sink that sets ``cancel`` when the first run finishes."""

    def __init__(self, cancel: threading.Event) -> None:
        self.cancel = cancel

    def handle(self, event) -> None:
        if isinstance(event, tel.RunFinished):
            self.cancel.set()


def test_parallel_cancel_raises_and_keeps_finished_runs(tmp_path):
    sink = ListSink()
    cancel = threading.Event()
    cache = ResultCache(root=tmp_path)
    harness = BatchExecutor(
        workers=2, cache=cache,
        bus=TelemetryBus([sink, CancelOnFirstFinish(cancel)]))
    specs = [_fast(seed) for seed in range(1, 7)]
    with pytest.raises(SweepCancelled):
        harness.run(specs, sweep="abandoned-parallel", cancel=cancel)
    finished = {e.index for e in sink.of_type(tel.RunFinished)}
    started = {e.index for e in sink.of_type(tel.RunStarted)}
    # Runs in flight at the cancel finish; none is started after it.
    assert finished and finished == started and len(started) < len(specs)
    assert {i for i, spec in enumerate(specs)
            if cache.get(spec) is not None} == finished
    assert not multiprocessing.active_children()


def test_cancel_before_start_runs_nothing():
    cancel = threading.Event()
    cancel.set()
    harness = BatchExecutor(workers=0)
    with pytest.raises(SweepCancelled, match="2 of 2"):
        harness.run([_fast(1), _fast(2)], sweep="stillborn", cancel=cancel)
