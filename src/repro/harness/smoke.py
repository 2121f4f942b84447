"""``make sweep-smoke``: the harness end-to-end in under ten seconds.

Runs a tiny Table-I slice twice through :class:`BatchExecutor` against a
fresh (temporary by default) cache directory and asserts the contract
the harness exists to provide:

1. the first pass executes every spec (parallel when the host allows);
2. the second, identical pass is served *entirely* from the cache;
3. both passes return bit-identical records in the same order;
4. no worker child is left alive once the sweeps return.

A third phase drives the sharded store directly with a burst of
distinct puts in its own throwaway root and pins its bookkeeping:

5. every digest in the burst counts exactly once;
6. after a warm query each shard's indexed offset equals its ledger
   size, so no ledger byte is left unfolded;
7. ``compact()`` leaves every execution count unchanged, in the live
   index and in one rebuilt from the rewritten ledgers.

Exits non-zero (with a diagnosis on stderr) if any of that fails, so it
can gate ``make test``.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import sqlite3
import sys
import tempfile
from pathlib import Path

from repro.harness import (
    BatchExecutor,
    ListSink,
    ProgressSink,
    ResultCache,
    RunSpec,
    SweepFinished,
    TelemetryBus,
    execute_spec,
)

#: A fast Table-I slice: two quick applications under both compilers.
SMOKE_SPECS: tuple[RunSpec, ...] = (
    RunSpec("mergesort", "gcc", "O2", threads=16),
    RunSpec("mergesort", "icc", "O2", threads=16),
    RunSpec("nqueens", "gcc", "O2", threads=16),
    RunSpec("nqueens", "icc", "O2", threads=16),
)

#: Distinct digests put in the store phase: enough to touch every shard.
STORE_PUTS = 400


def _sweep(cache_root: str, workers: int, quiet: bool, sweep: str):
    bus = TelemetryBus()
    capture = bus.subscribe(ListSink())
    if not quiet:
        bus.subscribe(ProgressSink())
    harness = BatchExecutor(workers=workers, cache=ResultCache(cache_root),
                            bus=bus)
    records = harness.run(list(SMOKE_SPECS), sweep=sweep)
    finished = capture.of_type(SweepFinished)[-1]
    return records, finished


def _store_failures() -> list[str]:
    """Put ``STORE_PUTS`` distinct records and check the store's books."""
    with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-store-") as root:
        cache = ResultCache(root)
        template = execute_spec(RunSpec("mergesort", scale=0.05))
        specs = [RunSpec("mergesort", scale=0.05, seed=seed)
                 for seed in range(STORE_PUTS)]
        for spec in specs:
            cache.put(spec, dataclasses.replace(template, spec=spec))

        failures: list[str] = []
        if any(cache.get(spec) is None for spec in specs):
            failures.append("store missed a just-put record")
        counts = cache.execution_counts()
        if len(counts) != STORE_PUTS or any(n != 1 for n in counts.values()):
            failures.append("store execution counts are not exactly-once")
        cache.execution_counts()  # warm: must read from the index only
        cache.info()
        with sqlite3.connect(Path(root) / "index.sqlite") as conn:
            offsets = dict(conn.execute(
                "SELECT shard, offset FROM shard_offsets"))
        sizes = {p.stem: p.stat().st_size
                 for p in cache.ledgers_dir.glob("*.jsonl")}
        if offsets != sizes:
            failures.append("warm store query left unfolded ledger bytes")
        cache.compact()
        compacted = cache.execution_counts()
        cache.reindex()  # re-fold the rewritten ledgers from scratch
        if compacted != counts or cache.execution_counts() != counts:
            failures.append("store compaction changed execution counts")
        return failures


def run_smoke(cache_root: str, workers: int = 2, quiet: bool = False) -> int:
    first, summary1 = _sweep(cache_root, workers, quiet, "smoke-pass-1")
    second, summary2 = _sweep(cache_root, workers, quiet, "smoke-pass-2")

    failures: list[str] = []
    if summary1.executed != len(SMOKE_SPECS) or summary1.cached != 0:
        failures.append(
            f"first pass should execute all {len(SMOKE_SPECS)} specs, got "
            f"executed={summary1.executed} cached={summary1.cached}"
        )
    if summary2.cached != len(SMOKE_SPECS) or summary2.executed != 0:
        failures.append(
            f"second pass should be all cache hits, got "
            f"cached={summary2.cached} executed={summary2.executed}"
        )
    if first != second:
        failures.append("cached records differ from freshly executed ones")
    if any(s.failed for s in (summary1, summary2)):
        failures.append("sweep reported failed runs")
    leftover = multiprocessing.active_children()
    if leftover:
        failures.append(
            f"{len(leftover)} worker children still alive after the sweeps: "
            f"pids {sorted(child.pid for child in leftover)}")
    failures += _store_failures()

    if failures:
        for failure in failures:
            print(f"sweep-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"sweep-smoke: OK — {len(SMOKE_SPECS)} runs executed "
        f"({summary1.wall_s:.2f} s, workers={workers}), second pass "
        f"{summary2.cached}/{len(SMOKE_SPECS)} cached "
        f"({summary2.wall_s:.2f} s); telemetry "
        f"{(summary1.telemetry_s + summary2.telemetry_s) * 1e3:.2f} ms; "
        f"store: {STORE_PUTS} puts exactly-once, warm query folded, "
        f"compaction count-preserving"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.smoke",
        description="tiny parallel sweep; asserts the rerun is all cache hits",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default: a fresh temporary dir)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        return run_smoke(args.cache_dir, args.workers, args.quiet)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-") as tmp:
        return run_smoke(tmp, args.workers, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
