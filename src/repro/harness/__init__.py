"""The unified experiment harness: specs, execution, caching, telemetry.

Every sweep in :mod:`repro.experiments` is expressed as a list of
declarative :class:`RunSpec` objects handed to a :class:`BatchExecutor`,
which looks each spec up in the digest-keyed :class:`ResultCache`, fans
the misses out over killable :class:`SpecWorker` children, one spec per
child at a time (or runs them in a serial loop), and narrates the whole
thing as typed telemetry events:

    from repro.harness import BatchExecutor, ResultCache, RunSpec, stderr_bus

    specs = [RunSpec("lulesh", "gcc", "O2", threads=t) for t in (1, 4, 16)]
    harness = BatchExecutor(workers=4, cache=ResultCache(), bus=stderr_bus())
    records = harness.run(specs, sweep="lulesh-scaling")

Records come back in input order, bit-identical to the serial path, and
a second identical sweep is served entirely from the cache.
"""

from repro.harness.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    code_stamp,
    default_cache_root,
    shard_for,
)
from repro.harness.storeindex import StoreIndex
from repro.harness.executor import (
    BatchExecutor,
    default_executor,
    execute_spec,
    run_spec_subprocess,
)
from repro.harness.record import MeasurementRecord, RunSummary
from repro.harness.spec import RunSpec
from repro.harness.telemetry import (
    InvariantViolated,
    JsonlSink,
    ListSink,
    Note,
    ProgressSink,
    RunCached,
    RunFailed,
    RunFinished,
    RunRequeued,
    RunRetried,
    RunStarted,
    RunValidated,
    SweepFinished,
    SweepProgress,
    SweepStarted,
    TelemetryBus,
    stderr_bus,
)

__all__ = [
    "BatchExecutor",
    "CACHE_DIR_ENV",
    "InvariantViolated",
    "JsonlSink",
    "ListSink",
    "MeasurementRecord",
    "Note",
    "ProgressSink",
    "ResultCache",
    "RunCached",
    "RunFailed",
    "RunFinished",
    "RunRequeued",
    "RunRetried",
    "RunSpec",
    "RunStarted",
    "RunSummary",
    "RunValidated",
    "StoreIndex",
    "SweepFinished",
    "SweepProgress",
    "SweepStarted",
    "TelemetryBus",
    "code_stamp",
    "default_cache_root",
    "default_executor",
    "execute_spec",
    "run_spec_subprocess",
    "shard_for",
    "stderr_bus",
]
