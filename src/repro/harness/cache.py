"""Digest-keyed on-disk result cache (sharded content-addressed store).

Layout under the cache root::

    objects/<stamp>/<digest[:2]>/<digest>.pkl   # one pickled record each
    ledgers/<shard>.jsonl                       # append-only audit trail
    ledgers/<shard>.lock                        # stable per-shard lock file
    index.sqlite                                # derived fold of the ledgers

Entries are keyed by the :class:`~repro.harness.spec.RunSpec` content
digest *and* a code version stamp, so a cache hit certifies both "same
configuration" and "same behaviour".  The stamp hashes the pinned
golden-trace digests (``tests/sim/golden_digests.json`` — the repo's
behavioural fingerprint, re-pinned on every intentional model change)
together with the calibration residual table and the package version:
an unrelated edit leaves the stamp alone (Table I re-runs are cache
hits), while a recalibration or re-pinned golden invalidates everything
by construction — stale entries are simply never looked up again.

Why sharded: a million-job campaign writes a million payloads and a
million ledger lines.  A single flat directory makes every lookup an
O(n) readdir on some filesystems, and a single ledger makes
``execution_counts()`` — the service's exactly-once evidence — an O(n)
scan per query.  So payloads fan out under the first two digest hex
chars, the ledger splits into one append-only file per shard, and a
sqlite index (:class:`~repro.harness.storeindex.StoreIndex`)
incrementally folds the ledgers so ``info()`` and ``execution_counts()``
are O(shards), independent of entry count.  The ledgers stay the truth;
the index is a cache of their fold and can always be rebuilt
(:meth:`ResultCache.reindex`).

Concurrency discipline:

* payload writes are atomic (temp file + ``os.replace``);
* ledger appends take an exclusive ``flock`` on the shard's *stable*
  lock file (never renamed or deleted, so two processes can never hold
  locks on different inodes of it), then put the whole line down in a
  single ``os.write`` on an ``O_APPEND`` descriptor;
* index folds run inside ``BEGIN IMMEDIATE`` sqlite transactions, so
  concurrent readers serialise and never double-count a ledger tail.

Reads are defensive: a missing, truncated or unpicklable payload is a
miss, never an error.  Caches written by the pre-shard flat layout are
not read: they carry an older version stamp, so every lookup misses and
the entries are regenerated.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

try:  # POSIX only; on other platforms appends fall back to unlocked writes
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.harness.record import MeasurementRecord
from repro.harness.spec import RunSpec
from repro.harness.storeindex import StoreIndex

#: Environment override for the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Ledger entries without a usable digest (probes, audit notes) land here.
MISC_SHARD = "_misc"

_SHARD_RE = re.compile(r"[0-9a-f]{2}")


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-harness"


def code_stamp() -> str:
    """Version stamp folded into every cache key (16 hex chars)."""
    h = hashlib.sha256()
    try:
        from repro import __version__
        h.update(__version__.encode())
    except ImportError:  # pragma: no cover - repro always has a version
        pass
    for path in _stamp_inputs():
        try:
            h.update(path.read_bytes())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()[:16]


def _stamp_inputs() -> list[Path]:
    from repro.calibration import residuals
    from repro.perf.golden import DEFAULT_DIGEST_PATH

    return [DEFAULT_DIGEST_PATH, Path(residuals.__file__)]


def shard_for(digest: Any) -> str:
    """The ledger shard an entry with this digest belongs to."""
    if isinstance(digest, str) and _SHARD_RE.fullmatch(digest[:2] or ""):
        return digest[:2]
    return MISC_SHARD


class ResultCache:
    """Digest-keyed store of :class:`MeasurementRecord` payloads."""

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        stamp: Optional[str] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.stamp = stamp if stamp is not None else code_stamp()
        self.hits = 0
        self.misses = 0
        self._index: Optional[StoreIndex] = None

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _object_path(self, spec: RunSpec) -> Path:
        digest = spec.digest
        return (
            self.root / "objects" / self.stamp / shard_for(digest)
            / f"{digest}.pkl"
        )

    @property
    def ledgers_dir(self) -> Path:
        return self.root / "ledgers"

    def shard_ledger_path(self, shard: str) -> Path:
        return self.ledgers_dir / f"{shard}.jsonl"

    @property
    def index(self) -> StoreIndex:
        if self._index is None:
            self._index = StoreIndex(self.root / "index.sqlite")
        return self._index

    def _shard_files(self) -> list[tuple[str, Path]]:
        """Every ledger file to fold, as ``(shard, path)`` pairs."""
        if not self.ledgers_dir.is_dir():
            return []
        return [
            (path.stem, path)
            for path in sorted(self.ledgers_dir.glob("*.jsonl"))
        ]

    def _sync_index(self) -> None:
        self.index.sync(self._shard_files())

    @contextmanager
    def _shard_lock(self, shard: str) -> Iterator[None]:
        """Exclusive lock on a shard's stable lock file.

        The lock file is separate from the data file and is never
        renamed, replaced or deleted (``clear`` keeps it), so every
        locker always locks the same inode — the failure mode where a
        compaction renames the data file out from under a waiting
        writer's flock cannot happen.
        """
        self.ledgers_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.ledgers_dir / f"{shard}.lock",
            os.O_CREAT | os.O_RDWR,
            0o644,
        )
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # releases the flock

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, spec: RunSpec) -> Optional[MeasurementRecord]:
        """The cached record for ``spec``, or None (never raises).

        Works for any spec kind with a ``digest`` (RunSpec, SchedSpec):
        the stored payload must carry a ``spec`` equal to the lookup key,
        which both authenticates the entry against digest collisions and
        replaces a hard type check — scheduler results cache here too.
        """
        try:
            with self._object_path(spec).open("rb") as fh:
                record = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError):
            self.misses += 1
            return None
        try:
            if getattr(record, "spec", None) != spec:
                self.misses += 1
                return None
        except Exception:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, spec: RunSpec, record: MeasurementRecord) -> Path:
        """Store ``record`` atomically and append a ledger line."""
        path = self._object_path(spec)
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        size = len(blob)
        # A concurrent clear() may sweep the shard directory between any
        # two steps here; recreate and retry until the rename lands.
        for attempt in range(16):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                continue
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
                break
            except FileNotFoundError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                continue
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        else:
            raise OSError(
                f"cache directory kept vanishing under put(): {path.parent}"
            )
        # RunSpec-shaped fields are best-effort: a SchedSpec ledger line
        # records kind + digest + the scalar summary instead.
        self._append_ledger(
            {
                "op": "put",
                "stamp": self.stamp,
                "kind": type(spec).__name__,
                "digest": spec.digest,
                "bytes": size,
                "spec": spec.describe(),
                "app": getattr(spec, "app", None),
                "compiler": getattr(spec, "compiler", None),
                "optlevel": getattr(spec, "optlevel", None),
                "threads": getattr(spec, "threads", None),
                "throttle": getattr(spec, "throttle", None),
                "seed": spec.seed,
                "time_s": record.time_s,
                "energy_j": record.energy_j,
                "watts": record.watts,
                "wall_s": record.wall_s,
            }
        )
        return path

    def _append_ledger(self, entry: dict[str, Any]) -> None:
        """Append one JSONL line to the entry's shard ledger, atomically.

        The shard lock serialises concurrent appenders, ``O_APPEND``
        positions the write at end-of-file, and the whole line goes down
        in a single ``os.write`` — two processes hammering one cache dir
        cannot interleave bytes within a line or split a line across
        another's write.  A torn tail left by a writer that died
        mid-append (no trailing newline) is terminated first, so the
        partial line is quarantined to itself instead of swallowing the
        next good line.
        """
        shard = shard_for(entry.get("digest"))
        line = (json.dumps(entry, sort_keys=True) + "\n").encode()
        with self._shard_lock(shard):
            fd = os.open(
                self.shard_ledger_path(shard),
                os.O_RDWR | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    line = b"\n" + line
                os.write(fd, line)
            finally:
                os.close(fd)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_lines(raw: bytes) -> list[dict[str, Any]]:
        entries: list[dict[str, Any]] = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                # A torn line means a writer died mid-append (pre-lock
                # history or a hard machine stop); skip, don't fail.
                continue
        return entries

    def ledger_entries(self) -> list[dict[str, Any]]:
        """Every complete ledger line across all shards.

        O(total lines) — this is the audit path, not the query path; use
        :meth:`execution_counts` / :meth:`info` for indexed summaries.
        """
        entries: list[dict[str, Any]] = []
        for _shard, path in self._shard_files():
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            entries.extend(self._parse_lines(raw))
        return entries

    def execution_counts(self) -> dict[str, int]:
        """Ledger ``put`` lines per digest — one per actual execution.

        The service's crash-recovery acceptance check reads this: after a
        kill/restart cycle every digest must have been executed exactly
        once (cache hits and dedup attaches never append ``put`` lines).
        Served from the sqlite index after an incremental sync of each
        shard's unfolded tail, so the cost is O(shards), not O(entries);
        compacted ledgers keep exact counts via their ``puts`` field.
        """
        self._sync_index()
        return self.index.counts()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every stored object (all stamps) and all ledgers.

        Returns the number of payload files removed.  Shard lock files
        survive on purpose — a concurrent writer blocked on one must
        still hold the same inode afterwards.
        """
        objects = self.root / "objects"
        removed = 0
        if objects.exists():
            removed = sum(1 for _ in objects.rglob("*.pkl"))
            shutil.rmtree(objects, ignore_errors=True)
        if self.ledgers_dir.is_dir():
            for path in self.ledgers_dir.glob("*.jsonl"):
                try:
                    path.unlink()
                except OSError:
                    pass
        self.index.reset()
        return removed

    def info(self) -> dict[str, Any]:
        """Root, stamp and per-stamp entry counts (for ``cache info``).

        Indexed: one incremental ledger sync plus O(1) queries, never a
        walk over payload files — which also removes the old race where
        a concurrent ``clear()`` deleted a payload between ``glob`` and
        ``stat`` and ``info`` raised ``FileNotFoundError``.
        """
        self._sync_index()
        summary = self.index.summary()
        stamps = {
            stamp: count
            for stamp, (count, _bytes) in sorted(summary.items())
            if stamp
        }
        total_bytes = sum(b for _n, b in summary.values())
        return {
            "root": str(self.root),
            "stamp": self.stamp,
            "entries": sum(stamps.values()),
            "current_stamp_entries": stamps.get(self.stamp, 0),
            "stamps": stamps,
            "bytes": total_bytes,
        }

    def reindex(self) -> dict[str, int]:
        """Drop the sqlite index and re-fold every ledger from scratch."""
        self.index.reset()
        self._sync_index()
        counts = self.index.counts()
        return {"digests": len(counts), "puts": sum(counts.values())}

    def compact(self) -> dict[str, int]:
        """Aggregate each shard ledger's put lines in place.

        Repeated ``put`` lines for one ``(digest, stamp)`` collapse into
        a single line carrying ``{"puts": N}``, so
        :meth:`execution_counts` stays exact while the file shrinks.
        Non-foldable lines (probes, notes) are preserved verbatim.  Each
        shard is rewritten under its lock with the index offset pinned
        to the new size, so no re-fold (and no double count) happens.
        """
        lines_before = 0
        lines_after = 0
        shards = 0
        if not self.ledgers_dir.is_dir():
            return {"shards": 0, "lines_before": 0, "lines_after": 0}
        for path in sorted(self.ledgers_dir.glob("*.jsonl")):
            shard = path.stem
            with self._shard_lock(shard):
                # Fold the full tail first so pinning the offset below
                # cannot skip lines the index has never seen.
                self.index.sync([(shard, path)])
                try:
                    raw = path.read_bytes()
                except OSError:
                    continue
                entries = self._parse_lines(raw)
                lines_before += len(entries)
                kept: list[dict[str, Any]] = []
                folded: dict[tuple[str, str], dict[str, Any]] = {}
                for entry in entries:
                    digest = entry.get("digest")
                    if entry.get("op") != "put" or not digest:
                        kept.append(entry)
                        continue
                    key = (digest, entry.get("stamp") or "")
                    agg = folded.get(key)
                    if agg is None:
                        agg = {
                            "op": "put",
                            "digest": digest,
                            "stamp": entry.get("stamp") or "",
                            "kind": entry.get("kind") or "",
                            "puts": 0,
                            "bytes": 0,
                            "compacted": True,
                        }
                        folded[key] = agg
                        kept.append(agg)
                    agg["puts"] += int(entry.get("puts", 1))
                    agg["bytes"] = max(
                        agg["bytes"], int(entry.get("bytes") or 0)
                    )
                lines_after += len(kept)
                shards += 1
                blob = b"".join(
                    (json.dumps(e, sort_keys=True) + "\n").encode()
                    for e in kept
                )
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(blob)
                        fh.flush()
                        os.fsync(fh.fileno())
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                # The rewritten file folds to exactly what the index
                # already holds, so just pin the offset past it.
                self.index.set_offset(shard, len(blob))
        return {
            "shards": shards,
            "lines_before": lines_before,
            "lines_after": lines_after,
        }
