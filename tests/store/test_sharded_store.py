"""Sharded content-addressed store: layout, index, compaction."""

import pytest

from repro.harness import ResultCache, RunSpec, execute_spec, shard_for

pytestmark = pytest.mark.store


@pytest.fixture(scope="module")
def record():
    return execute_spec(RunSpec("mergesort", scale=0.05))


def test_put_fans_out_by_digest_prefix(tmp_path, record):
    cache = ResultCache(root=tmp_path)
    path = cache.put(record.spec, record)
    digest = record.spec.digest
    assert path == (tmp_path / "objects" / cache.stamp / digest[:2]
                    / f"{digest}.pkl")
    assert path.exists()
    assert cache.shard_ledger_path(digest[:2]).exists()
    assert cache.get(record.spec) == record


def test_shard_for_routes_garbage_to_misc():
    assert shard_for("ab12cd") == "ab"
    assert shard_for(None) == "_misc"
    assert shard_for("") == "_misc"
    assert shard_for("ZZnothex") == "_misc"
    assert shard_for(42) == "_misc"


def test_compact_preserves_counts_and_shrinks(tmp_path, record):
    cache = ResultCache(root=tmp_path)
    for _ in range(4):
        cache.put(record.spec, record)
    cache._append_ledger({"op": "probe", "note": "kept verbatim"})
    before = cache.execution_counts()
    assert before == {record.spec.digest: 4}

    stats = cache.compact()
    assert stats["lines_before"] == 5
    assert stats["lines_after"] == 2  # 1 aggregated put + 1 probe
    assert cache.execution_counts() == before
    # A from-scratch reindex of the compacted ledgers agrees too.
    assert cache.reindex() == {"digests": 1, "puts": 4}
    entries = cache.ledger_entries()
    assert any(e.get("op") == "probe" for e in entries)
    put = next(e for e in entries if e.get("op") == "put")
    assert put["puts"] == 4 and put["compacted"] is True


def test_clear_resets_everything_but_keeps_locks(tmp_path, record):
    cache = ResultCache(root=tmp_path)
    cache.put(record.spec, record)
    other = execute_spec(RunSpec("nqueens", scale=0.05))
    cache.put(other.spec, other)
    assert cache.clear() == 2
    assert cache.get(record.spec) is None
    assert cache.execution_counts() == {}
    assert cache.info()["entries"] == 0
    assert list(cache.ledgers_dir.glob("*.jsonl")) == []
    assert list(cache.ledgers_dir.glob("*.lock"))  # stable lock inodes stay
    # The store keeps working after a clear.
    cache.put(record.spec, record)
    assert cache.execution_counts() == {record.spec.digest: 1}


def test_info_never_stats_payload_files(tmp_path, record):
    # Regression for the info()/clear() race: info used to stat every
    # payload and raise FileNotFoundError when one vanished mid-walk.
    # The indexed path reads no payloads at all, so a deleted file (or a
    # concurrent clear) can never break it.
    cache = ResultCache(root=tmp_path)
    path = cache.put(record.spec, record)
    info = cache.info()
    assert info["entries"] == 1 and info["bytes"] > 0
    path.unlink()  # payload vanishes between glob and stat, old-style
    info = cache.info()  # must not raise
    assert info["entries"] == 1  # ledger truth: the put happened
    assert info["stamps"] == {cache.stamp: 1}


def test_index_is_derived_and_rebuildable(tmp_path, record):
    cache = ResultCache(root=tmp_path)
    cache.put(record.spec, record)
    cache.put(record.spec, record)
    before = cache.execution_counts()
    (tmp_path / "index.sqlite").unlink()
    fresh = ResultCache(root=tmp_path)
    assert fresh.execution_counts() == before


def test_torn_ledger_tail_is_skipped_then_recovered(tmp_path, record):
    cache = ResultCache(root=tmp_path)
    cache.put(record.spec, record)
    shard = shard_for(record.spec.digest)
    ledger = cache.shard_ledger_path(shard)
    # A writer died mid-append: no trailing newline on the last line.
    with ledger.open("ab") as fh:
        fh.write(b'{"op": "put", "digest": "' + record.spec.digest.encode())
    assert cache.execution_counts() == {record.spec.digest: 1}
    # The next append terminates the torn line first, quarantining it to
    # itself: the partial parse fails and is skipped, while both
    # complete puts count.
    cache.put(record.spec, record)
    assert cache.execution_counts() == {record.spec.digest: 2}
    assert len(cache.ledger_entries()) == 2


def test_bounded_query_cost_is_independent_of_entry_count(tmp_path, record):
    # The sync is offset-incremental: after one full fold, a repeat
    # query re-reads zero ledger bytes.  Byte-move check, not a timing
    # check — timings flake, offsets don't.
    cache = ResultCache(root=tmp_path)
    for seed in range(10):
        import dataclasses
        spec = RunSpec("mergesort", scale=0.05, seed=seed)
        cache.put(spec, dataclasses.replace(record, spec=spec))
    cache.execution_counts()
    import sqlite3
    with sqlite3.connect(tmp_path / "index.sqlite") as conn:
        offsets = dict(conn.execute("SELECT shard, offset FROM shard_offsets"))
    sizes = {p.stem: p.stat().st_size
             for p in cache.ledgers_dir.glob("*.jsonl")}
    assert offsets == sizes  # fully folded: nothing left to re-read
