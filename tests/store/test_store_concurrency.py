"""Multi-process contention on one sharded store.

The store's whole claim is that concurrent writers (service workers,
CLI sweeps) and readers (``info``/``execution_counts``) can share a
cache root without torn ledger lines, lost puts, or crashed queries —
including while a ``clear()`` runs mid-flight.  These
tests hammer those paths with real forked processes.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.harness import ResultCache, RunSpec, execute_spec

pytestmark = pytest.mark.store

PUTS_PER_WRITER = 25


@pytest.fixture(scope="module")
def record():
    return execute_spec(RunSpec("mergesort", scale=0.05))


def _fork(target, *args):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=target, args=args)
    proc.start()
    return proc


def _put_worker(root, who, record):
    cache = ResultCache(root=root)
    for n in range(PUTS_PER_WRITER):
        spec = RunSpec("mergesort", scale=0.05, seed=who * 1000 + n)
        cache.put(spec, dataclasses.replace(record, spec=spec))
    os._exit(0)


def _query_worker(root, rounds):
    # A reader folding ledger tails concurrently with the writers: every
    # call must succeed, and counts may only grow.
    cache = ResultCache(root=root)
    last = 0
    for _ in range(rounds):
        counts = cache.execution_counts()
        info = cache.info()
        total = sum(counts.values())
        if total < last or info["entries"] < 0:
            os._exit(1)
        last = total
    os._exit(0)


def test_writers_and_reader_share_one_store(tmp_path, record):
    writers = [_fork(_put_worker, str(tmp_path), who, record)
               for who in (1, 2, 3)]
    reader = _fork(_query_worker, str(tmp_path), 30)
    for proc in writers + [reader]:
        proc.join(120)
        assert proc.exitcode == 0

    cache = ResultCache(root=tmp_path)
    counts = cache.execution_counts()
    assert len(counts) == 3 * PUTS_PER_WRITER  # no lost puts
    assert all(n == 1 for n in counts.values())  # no double counts
    # Every ledger line across every shard parses: nothing tore.
    entries = cache.ledger_entries()
    assert len(entries) == 3 * PUTS_PER_WRITER
    assert cache.info()["entries"] == 3 * PUTS_PER_WRITER


def test_clear_mid_flight_never_tears_or_crashes(tmp_path, record):
    writers = [_fork(_put_worker, str(tmp_path), who, record)
               for who in (1, 2)]
    main = ResultCache(root=tmp_path)
    # Interleave clears with the writers' puts; none of it may raise.
    for _ in range(5):
        main.clear()
        main.info()
    for proc in writers:
        proc.join(120)
        assert proc.exitcode == 0

    # Whatever survived the clears, the surviving ledgers are intact:
    # every line parses, and counts are internally consistent.
    cache = ResultCache(root=tmp_path)
    for path in cache.ledgers_dir.glob("*.jsonl"):
        for line in path.read_bytes().splitlines():
            json.loads(line)  # raises on a torn line
    # Post-quiesce, the store is fully functional and exact again.
    cache.clear()
    assert cache.execution_counts() == {}
    spec = RunSpec("mergesort", scale=0.05, seed=424242)
    cache.put(spec, dataclasses.replace(record, spec=spec))
    assert cache.execution_counts() == {spec.digest: 1}


