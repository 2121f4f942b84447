"""Validation entry points: single-spec, corpus sweep, differential replay.

Three layers:

* :func:`validate_spec` — run one spec under the
  :class:`~repro.validate.checker.InvariantChecker`, audit the resulting
  record, classify violations against the spec's fault config and return
  ``(record, report)``.  Top-level and all-scalar, so the harness can fan
  it out over a process pool.
* :func:`run_validation_sweep` — sweep a spec list in validate mode
  through the :class:`~repro.harness.executor.BatchExecutor` and
  aggregate per-run reports.
* :func:`differential_sweep` — replay a fault-free slice through the
  *unchecked serial*, *checked serial* and *unchecked parallel* paths and
  assert all three produce bit-identical records: proof the checker
  observes without perturbing and the pool without reordering physics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.harness.executor import BatchExecutor, execute_spec
from repro.harness.record import MeasurementRecord
from repro.harness.spec import Spec
from repro.harness.telemetry import TelemetryBus
from repro.validate.violations import ValidationReport


def validate_spec(
    spec: Spec,
    *,
    interval_s: float = 0.1,
) -> tuple[MeasurementRecord, ValidationReport]:
    """Execute ``spec`` in validate mode (:meth:`Spec.validate_execute`).

    A :class:`~repro.harness.spec.RunSpec` or
    :class:`~repro.cosched.spec.CoschedSpec` runs under the invariant
    checker and audits its books; a :class:`~repro.sched.spec.SchedSpec`
    reports the violations its budget auditors recorded.
    """
    return spec.validate_execute(interval_s=interval_s)


# ----------------------------------------------------------------------
# corpus sweep
# ----------------------------------------------------------------------
@dataclass
class ValidationSweepResult:
    """Aggregated outcome of a validate-mode sweep."""

    reports: list[ValidationReport]
    records: list[MeasurementRecord]
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def total_checks(self) -> int:
        return sum(sum(r.checks.values()) for r in self.reports)

    @property
    def invariants_exercised(self) -> set[str]:
        names: set[str] = set()
        for report in self.reports:
            names.update(report.checks)
        return names

    def format(self) -> str:
        lines = []
        for report in self.reports:
            lines.append(report.summary_line())
            for violation in report.violations:
                lines.append(f"    {violation}")
        expected = sum(len(r.expected_violations) for r in self.reports)
        unexpected = sum(len(r.unexpected) for r in self.reports)
        lines.append(
            f"\n{len(self.reports)} runs validated in {self.wall_s:.1f} s: "
            f"{self.total_checks} invariant checks across "
            f"{len(self.invariants_exercised)} invariants; "
            f"{unexpected} unexpected violations, {expected} expected "
            f"(fault-attributable)."
        )
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_validation_sweep(
    specs: Sequence[Spec],
    *,
    workers: int = 1,
    bus: Optional[TelemetryBus] = None,
    sweep: str = "validate",
) -> ValidationSweepResult:
    """Run ``specs`` in validate mode and aggregate the reports.

    Always uncached: a cache hit would skip validation, and validation is
    the entire point of the sweep.
    """
    harness = BatchExecutor(workers=workers, bus=bus, validate=True)
    t0 = time.perf_counter()
    records = harness.run(list(specs), sweep=sweep)
    wall = time.perf_counter() - t0
    reports = [harness.validation_reports[i] for i in range(len(records))]
    return ValidationSweepResult(reports=reports, records=records, wall_s=wall)


# ----------------------------------------------------------------------
# differential replay
# ----------------------------------------------------------------------
@dataclass
class DifferentialResult:
    """Bit-identity verdict across execution paths for one spec list."""

    labels: list[str] = field(default_factory=list)
    #: Per-spec: checked serial record == unchecked serial record.
    checked_identical: list[bool] = field(default_factory=list)
    #: Per-spec: parallel record == unchecked serial record.
    parallel_identical: list[bool] = field(default_factory=list)
    #: True when the pool genuinely ran with >= 2 workers (on a
    #: single-core host the executor may fall back to serial — the
    #: comparison still holds, it is just less adversarial).
    pooled: bool = False

    @property
    def ok(self) -> bool:
        return all(self.checked_identical) and all(self.parallel_identical)

    def format(self) -> str:
        lines = ["differential replay (unchecked serial as reference):"]
        for label, checked, pooled in zip(
            self.labels, self.checked_identical, self.parallel_identical
        ):
            lines.append(
                f"  {label:<36} checked={'==' if checked else 'DIFFERS'} "
                f"parallel={'==' if pooled else 'DIFFERS'}"
            )
        lines.append(
            "RESULT: " + ("PASS (bit-identical)" if self.ok else "FAIL")
        )
        return "\n".join(lines)


def differential_sweep(
    specs: Sequence[Spec],
    *,
    workers: int = 2,
) -> DifferentialResult:
    """Replay ``specs`` through three paths and compare records exactly.

    ``MeasurementRecord`` equality is dataclass field equality over exact
    floats (host wall time excluded), so ``==`` here *is* bit-identity of
    everything the simulation produced.
    """
    specs = list(specs)
    reference = [execute_spec(spec) for spec in specs]
    checked = [validate_spec(spec)[0] for spec in specs]
    pool = BatchExecutor(workers=workers)
    parallel = pool.run(specs, sweep="validate-differential")
    result = DifferentialResult(pooled=workers >= 2 and len(specs) >= 2)
    for spec, ref, chk, par in zip(specs, reference, checked, parallel):
        result.labels.append(spec.describe())
        result.checked_identical.append(chk == ref)
        result.parallel_identical.append(par == ref)
    return result
