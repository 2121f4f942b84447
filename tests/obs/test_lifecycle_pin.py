"""Pins for the lifecycle event wire and the counters derived from it.

The wire is each event class's ``"event"`` name and field names, as
``--events`` JSONL lines and service stream frames carry them.  The
counters are ``harness_runs_total``, ``sched_jobs_*`` and
``service_events_total`` (equal to the ``stats`` frame's ``counters``)
after scenarios that give each deterministic series a nonzero count.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
import time
from types import SimpleNamespace

import pytest

from repro.errors import HarnessError
from repro.harness import BatchExecutor, ListSink, ResultCache, RunSpec
from repro.harness import TelemetryBus
from repro.harness import telemetry as tel
from repro.obs import MetricsRegistry, parse_prometheus
from repro.sched.spec import SchedSpec
from repro.service.jobs import Job
from repro.service.journal import Journal
from repro.service.server import EVENT_KEYS

pytestmark = pytest.mark.obs

#: (wire name, field names) of every lifecycle event class.
WIRE = sorted([
    ("InvariantViolated",
     "sweep index label invariant category message time_s expected"),
    ("JobAccepted", "job digest kind client queue_depth"),
    ("JobAttached", "job digest client state"),
    ("JobCacheHit", "job digest client"),
    ("JobCancelled", "job digest"),
    ("JobDead", "job digest reason attempts redeliveries"),
    ("JobFailed", "job digest attempts error"),
    ("JobFinished", "job digest time_s energy_j watts wall_s"),
    ("JobPlaced", "index app node policy wait_s time_s"),
    ("JobRejected", "index app queue_depth time_s"),
    ("JobRequeued", "job digest redelivery error"),
    ("JobRetried", "job digest attempt delay_s error reason"),
    ("JobShed", "client reason retry_after_s"),
    ("JobStarted", "job digest attempt pid"),
    ("JobSubmitted", "index app threads time_s"),
    ("Note", "message"),
    ("QueueDepthChanged", "depth in_flight"),
    ("RunCached", "sweep index total label time_s energy_j watts"),
    ("RunFailed", "sweep index total label attempts error"),
    ("RunFinished", "sweep index total label time_s energy_j watts wall_s"),
    ("RunRequeued", "sweep index total label redelivery"),
    ("RunRetried", "sweep index total label attempt error"),
    ("RunStarted", "sweep index total label"),
    ("RunValidated",
     "sweep index total label batteries checks violations unexpected"),
    ("SchedFinished", "policy profile submitted completed rejected "
                      "makespan_s peak_power_w budget_w"),
    ("SchedJobFinished", "index app node service_s energy_j watts time_s"),
    ("ServiceDraining", "queued in_flight"),
    ("ServiceRecovered", "jobs requeued cache_hits"),
    ("ServiceStarted", "host port workers queue_depth cache journal"),
    ("ServiceStopped", "accepted executed cache_hits attached shed failed "
                       "dead cancelled uptime_s"),
    ("SweepFinished", "sweep total executed cached failed retried wall_s "
                      "telemetry_s events"),
    ("SweepProgress", "sweep done total"),
    ("SweepStarted", "sweep total workers cache"),
    ("WorkerCrashDetected", "job digest pid"),
])


def _event_classes() -> list[type]:
    """Every dataclass defined in a ``repro.*.telemetry`` module."""
    for name in ("repro.harness.telemetry", "repro.service.server",
                 "repro.sched.cluster"):
        importlib.import_module(name)
    found = []
    for name, module in sorted(sys.modules.items()):
        if not (name.startswith("repro.") and name.endswith(".telemetry")):
            continue
        found.extend(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == name)
    return found


def test_event_wire_names_and_fields_are_pinned():
    wire = sorted(
        (cls.__name__, " ".join(f.name for f in dataclasses.fields(cls)))
        for cls in _event_classes())
    assert wire == WIRE


# ------------------------------------------------------------ harness
def _runs(registry: MetricsRegistry) -> dict[str, float]:
    series = registry.snapshot().instruments["harness_runs_total"].series
    return {key[0]: value for key, value in series.items()}


def test_harness_runs_total_after_a_mixed_serial_sweep(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    stored = RunSpec("nqueens", scale=0.05, seed=1)
    BatchExecutor(workers=0, cache=cache).run([stored], sweep="warm")
    registry = MetricsRegistry()
    harness = BatchExecutor(workers=0, cache=cache, retries=1,
                            registry=registry)
    with pytest.raises(HarnessError):
        harness.run([stored, RunSpec("nqueens", scale=0.05, seed=2),
                     RunSpec("no-such-app")], sweep="mixed")
    assert _runs(registry) == {
        "cached": 1.0, "executed": 1.0, "failed": 1.0, "retried": 1.0,
        "requeued": 0.0,
    }


def test_two_executors_on_one_bus_and_registry_count_once():
    sink = ListSink()
    bus = TelemetryBus([sink])
    registry = MetricsRegistry()
    for seed in (3, 4):
        BatchExecutor(workers=0, bus=bus, registry=registry).run(
            [RunSpec("nqueens", scale=0.05, seed=seed)], sweep=f"s{seed}")
    assert _runs(registry)["executed"] == 2.0
    assert [e.executed for e in sink.of_type(tel.SweepFinished)] == [1, 1]


# ---------------------------------------------------------- scheduler
def test_sched_counters_after_a_run_that_sheds():
    registry = MetricsRegistry()
    result = SchedSpec(profile="bursty", policy="waterfill", nodes=1,
                       budget_w=200.0, jobs=6, queue_depth=1,
                       seed=0).execute(registry=registry)
    assert (result.completed, result.rejected_count) == (2, 4)
    snap = registry.snapshot().instruments
    assert snap["sched_jobs_dispatched_total"].series == {("waterfill",): 2.0}
    assert snap["sched_jobs_shed_total"].series == {(): 4.0}


# ------------------------------------------------------------ service
# Worker entries are module-level so fork()ed children resolve them.
# The spec's seed picks the behaviour.
_OK, _FAIL, _CRASH, _HANG, _SLOW = range(5)


def entry_by_seed(spec):
    kind = spec.seed % 10
    if kind == _FAIL:
        raise ValueError("synthetic spec failure")
    if kind == _CRASH:
        os._exit(13)
    time.sleep({_OK: 0.01, _HANG: 60.0, _SLOW: 0.5}[kind])
    return SimpleNamespace(spec=spec, time_s=1.0, energy_j=16.0,
                           watts=16.0, wall_s=0.01)


def _spec(kind: int, n: int = 0) -> RunSpec:
    return RunSpec("nqueens", scale=0.05, seed=10 * n + kind)


def _check_counters(client, expected: dict[str, int]) -> None:
    counters = client.stats()["counters"]
    parsed = parse_prometheus(client.metrics()["prometheus"])
    assert counters == {key: parsed.value("service_events_total", event=key)
                        for key in EVENT_KEYS}
    assert counters == {key: expected.get(key, 0) for key in EVENT_KEYS}


@pytest.mark.service
def test_service_counters_across_the_lifecycle(make_service, make_client):
    svc = make_service(entry_by_seed, workers=2, queue_depth=1,
                       timeout_s=1.5, retries=1, max_redeliveries=1,
                       quota_rate=0.001, quota_burst=1.0)
    client = {name: make_client(svc, name) for name in "abcdefghij"}
    assert client["a"].submit_and_wait(_spec(_OK), 30.0)["state"] == "done"
    assert client["a"].submit(_spec(_OK))["attached"] is True
    assert client["b"].submit_and_wait(_spec(_FAIL), 30.0)["state"] == "failed"
    assert client["c"].submit_and_wait(_spec(_CRASH), 60.0)["state"] == "dead"
    assert client["d"].submit_and_wait(_spec(_HANG), 60.0)["state"] == "dead"
    assert client["e"].submit_and_wait(_spec(_OK, 1), 30.0)["state"] == "done"
    shed = client["e"].submit(_spec(_OK, 2))
    assert shed["reason"] == "quota"
    # Two slow jobs fill both workers, a third fills the queue, and a
    # fourth bounces off it; then the queued one is cancelled.
    running = [client["f"].submit(_spec(_SLOW, 1)),
               client["g"].submit(_spec(_SLOW, 2))]
    queued = client["h"].submit(_spec(_SLOW, 3))
    assert client["i"].submit(_spec(_SLOW, 4))["reason"] == "queue-full"
    assert client["h"].cancel(queued["job"])["cancelled"] is True
    for response in running:
        assert client["f"].result(response["job"], 30.0)["state"] == "done"
    svc.service._draining = True
    assert client["j"].submit(_spec(_OK, 5))["reason"] == "draining"
    svc.service._draining = False
    _check_counters(client["a"], {
        "accepted": 8, "attached": 1, "executed": 4,
        "shed_queue": 1, "shed_quota": 1, "shed_draining": 1,
        "retries": 2, "timeouts": 2, "crashes": 2, "requeues": 1,
        "failed": 1, "dead": 2, "cancelled": 1,
    })


@pytest.mark.service
def test_service_counters_after_recovery(make_service, make_client,
                                         tmp_path):
    cache_root = str(tmp_path / "cache")
    journal_path = str(tmp_path / "journal.jsonl")
    stored, pending = _spec(_OK, 1), _spec(_OK, 2)
    ResultCache(root=cache_root).put(stored, stored.execute())
    with Journal(journal_path) as journal:
        for seq, spec in enumerate((stored, pending), start=1):
            job = Job(id=f"j-{seq:06d}", spec=spec, client="before")
            journal.append("accepted", **job.journal_fields())
    svc = make_service(entry_by_seed, cache_root=cache_root,
                       journal_path=journal_path)
    client = make_client(svc)
    assert client.result("j-000002", 30.0)["state"] == "done"
    _check_counters(client, {"recovered": 2, "cache_hits": 1,
                             "executed": 1})
