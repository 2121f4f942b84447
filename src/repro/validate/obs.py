"""Observability-book invariants: the metrics registry audits itself.

The :mod:`repro.obs` registry is pure bookkeeping — every number in a
snapshot is derived from recorded operations, so each one has an exact
cross-check.  These invariants catch snapshot corruption (a bad merge, a
mangled JSON round-trip, a sketch whose books drifted) the same way
:mod:`repro.validate.records` catches ledger corruption, and they run in
the obs smoke and the tripwire tests.

All violations are ``ledger`` category: observability is derived
bookkeeping, so no fault profile can ever explain a broken snapshot.

* **counter-sign** — counters only ever accumulate non-negative
  increments, so every counter series value is >= 0.
* **histogram-count** — a histogram sketch's ``count`` equals its zero
  count plus the sum of its bucket counts (exact integer identity).
* **histogram-extrema** — a non-empty sketch has ``min <= max``, both
  within the recorded total's reach (``total >= count * min`` and
  ``total <= count * max`` up to float slack).
* **books-coherence** — the registry's self-measurement books satisfy
  ``ops >= timed_ops`` and both are non-negative, as is the measured
  overhead.
* **merge-identity** — merging a snapshot with an empty snapshot is the
  identity (checked via canonical forms).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.validate.violations import Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsSnapshot

#: Relative slack on the total-vs-extrema envelope: sketch totals are
#: exact float sums, so only accumulated rounding needs covering.
_EXTREMA_SLACK = 1e-9


def _series_label(name: str, labels: tuple) -> str:
    if not labels:
        return name
    return f"{name}{{{','.join(map(str, labels))}}}"


def check_snapshot(snapshot: "MetricsSnapshot") -> List[Violation]:
    """Run every obs-book invariant over one metrics snapshot."""
    from repro.obs.metrics import COUNTER, HISTOGRAM, MetricsSnapshot

    violations: list[Violation] = []

    for inst in snapshot.instruments.values():
        for labels, value in inst.series.items():
            where = _series_label(inst.name, labels)
            if inst.kind == COUNTER:
                if not value >= 0:  # catches negatives and NaN alike
                    violations.append(Violation(
                        invariant="obs-counter-sign",
                        category="ledger",
                        message=(
                            f"{where}: counter value {value!r} is "
                            f"negative (or NaN); counters only take "
                            f"non-negative increments"
                        ),
                    ))
            elif inst.kind == HISTOGRAM:
                violations.extend(_check_sketch(where, value))

    violations.extend(_check_books(snapshot))

    merged = MetricsSnapshot.empty().merge(snapshot)
    if merged.canonical() != snapshot.canonical():
        violations.append(Violation(
            invariant="obs-merge-identity",
            category="ledger",
            message=(
                "merging with the empty snapshot changed the canonical "
                "form — merge is not an identity on this snapshot"
            ),
        ))
    return violations


def _check_sketch(where: str, sketch) -> Iterable[Violation]:
    bucket_total = sketch.zeros + sum(sketch.buckets.values())
    if sketch.count != bucket_total:
        yield Violation(
            invariant="obs-histogram-count",
            category="ledger",
            message=(
                f"{where}: sketch count {sketch.count} != zeros + "
                f"bucket sum {bucket_total}"
            ),
        )
    if any(n <= 0 for n in sketch.buckets.values()):
        yield Violation(
            invariant="obs-histogram-count",
            category="ledger",
            message=f"{where}: sketch holds a non-positive bucket count",
        )
    if sketch.count == 0:
        return
    lo, hi = sketch.min_value, sketch.max_value
    if lo > hi:
        yield Violation(
            invariant="obs-histogram-extrema",
            category="ledger",
            message=f"{where}: sketch min {lo!r} > max {hi!r}",
        )
        return
    slack = _EXTREMA_SLACK * max(abs(sketch.total), 1.0)
    if sketch.total < sketch.count * lo - slack:
        yield Violation(
            invariant="obs-histogram-extrema",
            category="ledger",
            message=(
                f"{where}: total {sketch.total!r} < count*min "
                f"{sketch.count * lo!r} — observations below the "
                f"recorded minimum"
            ),
        )
    if sketch.total > sketch.count * hi + slack:
        yield Violation(
            invariant="obs-histogram-extrema",
            category="ledger",
            message=(
                f"{where}: total {sketch.total!r} > count*max "
                f"{sketch.count * hi!r} — observations above the "
                f"recorded maximum"
            ),
        )


def _check_books(snapshot: "MetricsSnapshot") -> Iterable[Violation]:
    books = {
        inst.name: sum(inst.series.values())
        for inst in snapshot.instruments.values()
        if inst.name.startswith("obs_registry_")
    }
    ops = books.get("obs_registry_ops_total", 0.0)
    timed = books.get("obs_registry_timed_ops_total", 0.0)
    overhead = books.get("obs_registry_overhead_seconds_total", 0.0)
    if timed > ops:
        yield Violation(
            invariant="obs-books-coherence",
            category="ledger",
            message=(
                f"registry books: timed_ops {timed:g} > ops {ops:g} — "
                f"more sampled operations than operations"
            ),
        )
    for name, value in (("ops", ops), ("timed_ops", timed),
                        ("overhead_s", overhead)):
        if not value >= 0:
            yield Violation(
                invariant="obs-books-coherence",
                category="ledger",
                message=f"registry books: {name} is {value!r}, not >= 0",
            )
