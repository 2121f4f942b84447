"""The RCR blackboard: a self-describing hierarchical meter store.

Models the shared-memory region the RCRdaemon exports ("provides
performance information to various clients through a self-describing
hierarchical data structure in a shared memory region", Section II-B).
Meters are addressed by dotted paths (``node.socket.0.power_w``); every
update carries a timestamp and a monotonically-increasing version so
clients can detect staleness, just as they must with the real daemon.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional

from repro.errors import MeasurementError


class MeterRecord(NamedTuple):
    """One published meter value (immutable; one per daemon publish)."""

    path: str
    value: float
    timestamp: float
    version: int


_new_tuple = tuple.__new__


class Blackboard:
    """Versioned hierarchical meter store (the shared-memory analog)."""

    def __init__(self) -> None:
        self._meters: dict[str, MeterRecord] = {}
        self._version = 0

    def publish(self, path: str, value: float, timestamp: float) -> MeterRecord:
        """Write a meter value (daemon side)."""
        if not path:
            raise MeasurementError("meter path must be non-empty")
        self._version += 1
        # ``tuple.__new__`` directly, as ``MeterRecord._make`` does: the
        # daemon publishes two dozen meters per tick, and the generated
        # constructor would add a Python frame to each.
        record = _new_tuple(MeterRecord, (path, float(value), timestamp, self._version))
        self._meters[path] = record
        return record

    def read(self, path: str) -> MeterRecord:
        """Read a meter record (client side)."""
        record = self._meters.get(path)
        if record is None:
            raise MeasurementError(f"no meter published at {path!r}")
        return record

    def read_value(self, path: str, default: Optional[float] = None) -> float:
        """Read just the value, with an optional default for absent meters."""
        record = self._meters.get(path)
        if record is None:
            if default is None:
                raise MeasurementError(f"no meter published at {path!r}")
            return default
        return record.value

    def has(self, path: str) -> bool:
        """True if a meter has ever been published at ``path``."""
        return path in self._meters

    # ------------------------------------------------------------------
    # staleness (client-side health checks)
    # ------------------------------------------------------------------
    def last_update_s(self, path: str) -> Optional[float]:
        """Timestamp of the last publish at ``path``, or None if absent."""
        record = self._meters.get(path)
        return None if record is None else record.timestamp

    def staleness_s(self, path: str, now: float) -> float:
        """Age of the record at ``path`` relative to ``now``, seconds.

        A meter that was never published is infinitely stale; a record
        published at or after ``now`` has zero staleness (the daemon and a
        client can share a timestamp within one engine tick).
        """
        record = self._meters.get(path)
        if record is None:
            return float("inf")
        return max(0.0, now - record.timestamp)

    def is_stale(self, path: str, now: float, max_age_s: float) -> bool:
        """True when the record at ``path`` is older than ``max_age_s``."""
        return self.staleness_s(path, now) > max_age_s

    def paths(self, prefix: str = "") -> list[str]:
        """All published paths under ``prefix`` (self-description)."""
        return sorted(p for p in self._meters if p.startswith(prefix))

    def tree(self) -> dict[str, Any]:
        """Nested-dict view of the hierarchy (self-describing structure)."""
        root: dict[str, Any] = {}
        for path, record in self._meters.items():
            parts = path.split(".")
            cursor = root
            for part in parts[:-1]:
                cursor = cursor.setdefault(part, {})
                if not isinstance(cursor, dict):
                    raise MeasurementError(
                        f"meter path {path!r} collides with a leaf meter"
                    )
            cursor[parts[-1]] = record.value
        return root

    def __iter__(self) -> Iterator[MeterRecord]:
        return iter(self._meters.values())

    def __len__(self) -> int:
        return len(self._meters)
