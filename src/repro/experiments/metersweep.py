"""Meter sweep: attribution error and observer overhead across backends.

The metering counterpart of the fault sweep.  For every (backend ×
sampling cadence × fault profile) cell, run the same workload through the
full stack with that meter configured and a per-read observer cost
charged, then report:

* **attribution error** — how far the backend's measured region energy
  sits from simulator ground truth, as a signed fraction.  The RAPL
  backend reads the (possibly faulted) truth counter, so its error is
  quantisation — unless faults corrupt the register.  The counter-model
  backend never fails a read but carries workload-dependent model bias;
  its error must stay inside the declared envelope
  (:class:`~repro.config.MeterConfig.envelope_frac`).
* **observer overhead** — the extra ground-truth energy and time the
  measured system paid for being sampled at that cadence (each sample
  read is charged as real work; see
  :meth:`repro.rcr.daemon.RCRDaemon._charge_read_cost`), relative to the
  slowest-cadence cell of the same backend/profile.
* **cross-backend disagreement** — between the two meters on the same
  cell coordinates, the number a practitioner comparing tools would see.

The sweep runs through :class:`~repro.harness.executor.BatchExecutor`,
so cells cache by spec digest and a re-run is served without executing;
afterwards the per-record ledger audits and the cross-record overhead
monotonicity invariant (:mod:`repro.validate.metering`) are applied to
the records, making the sweep a self-checking experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import MeterConfig
from repro.faults import PROFILES
from repro.harness import BatchExecutor, MeasurementRecord, RunSpec, default_executor
from repro.measure.energy import SampleQuality

#: Memory-bound and throttleable — the workload where the counter model's
#: stall/bandwidth blindness is most exposed.
DEFAULT_APP = "lulesh"

#: 12 threads on the 16-core node: the overhead core (last core) stays
#: free, so per-read charges land instead of being skipped and the
#: observer effect is actually witnessed.
DEFAULT_THREADS = 12

DEFAULT_BACKENDS: tuple[str, ...] = ("rapl", "counter-model")

#: Sampling cadences, slowest first: the paper's 0.1 s flanked by a lazy
#: and an aggressive sampler (4x slower / 4x faster).
DEFAULT_PERIODS: tuple[float, ...] = (0.4, 0.1, 0.025)

#: Fault profiles: clean, corrupt-the-energy-register (hits only the
#: RAPL backend — the counter model never reads it), and a sampler stall
#: (hits both backends through the tick schedule).
DEFAULT_PROFILES: tuple[str, ...] = ("none", "flaky-msr", "stall")

#: Observer cost per socket sample read, solo-seconds (~2 ms of work per
#: read: syscall + MSR read + blackboard update at real-tool scale).
DEFAULT_READ_COST_S = 0.002

#: Trimmed problem size keeps the full grid tractable.
DEFAULT_SCALE = 0.5

#: Quick subset (smoke / CI): both backends, two cadences, fault-free.
QUICK_PERIODS: tuple[float, ...] = (0.1, 0.025)
QUICK_PROFILES: tuple[str, ...] = ("none",)


@dataclass
class MeterSweepCell:
    """One (backend, period, profile) run with its record."""

    backend: str
    period_s: float
    profile: str
    record: MeasurementRecord

    @property
    def measured_j(self) -> float:
        return self.record.energy_j

    @property
    def truth_j(self) -> float:
        return self.record.run.energy_j

    @property
    def attribution_error(self) -> float:
        """Signed fractional error of the meter vs ground truth."""
        if self.truth_j == 0.0:
            return 0.0
        return (self.measured_j - self.truth_j) / self.truth_j

    @property
    def degraded_samples(self) -> int:
        return sum(
            count
            for quality, count in self.record.quality_counts.items()
            if quality is not SampleQuality.OK
        )


@dataclass
class MeterSweepResult:
    """The full sweep, keyed by (backend, period_s, profile)."""

    cells: dict[tuple[str, float, str], MeterSweepCell] = field(
        default_factory=dict
    )
    seed: int = 0
    #: Violations from the post-sweep invariant audit (ledger checks per
    #: record + cross-record overhead monotonicity), unexpected only.
    audit_violations: list = field(default_factory=list)

    @property
    def backends(self) -> list[str]:
        seen: list[str] = []
        for backend, _p, _f in self.cells:
            if backend not in seen:
                seen.append(backend)
        return seen

    @property
    def periods(self) -> list[float]:
        seen: list[float] = []
        for _b, period, _f in self.cells:
            if period not in seen:
                seen.append(period)
        return sorted(seen, reverse=True)

    @property
    def profiles(self) -> list[str]:
        seen: list[str] = []
        for _b, _p, profile in self.cells:
            if profile not in seen:
                seen.append(profile)
        return seen

    @property
    def ok(self) -> bool:
        return not self.audit_violations

    def overhead_vs_slowest(self, cell: MeterSweepCell) -> tuple[float, float]:
        """(extra truth Joules, extra seconds) vs the slowest cadence cell
        of the same backend/profile — the observer effect at this cadence."""
        slowest = self.cells.get(
            (cell.backend, self.periods[0], cell.profile)
        )
        if slowest is None or slowest is cell:
            return 0.0, 0.0
        return (
            cell.truth_j - slowest.truth_j,
            cell.record.run.elapsed_s - slowest.record.run.elapsed_s,
        )

    def disagreement(self, period_s: float, profile: str) -> Optional[float]:
        """Fractional measured-energy gap between backends on one cell."""
        rapl = self.cells.get(("rapl", period_s, profile))
        model = self.cells.get(("counter-model", period_s, profile))
        if rapl is None or model is None or rapl.measured_j == 0.0:
            return None
        return (model.measured_j - rapl.measured_j) / rapl.measured_j

    def format(self) -> str:
        lines = [
            "METER SWEEP: attribution error and observer overhead "
            f"(backend x cadence x faults, seed={self.seed})",
            "",
            f"{'backend':<15}{'period':>8} {'profile':<10}"
            f"{'measured J':>11}{'truth J':>10}{'error':>8}"
            f"{'+ovh J':>8}{'+ovh s':>8}{'reads':>7}{'degr':>6}",
        ]
        for (backend, period, profile), cell in self.cells.items():
            extra_j, extra_s = self.overhead_vs_slowest(cell)
            lines.append(
                f"{backend:<15}{period:>7g}s {profile:<10}"
                f"{cell.measured_j:>11.1f}{cell.truth_j:>10.1f}"
                f"{cell.attribution_error:>8.2%}"
                f"{extra_j:>8.1f}{extra_s:>8.2f}"
                f"{cell.record.overhead_reads_charged:>7d}"
                f"{cell.degraded_samples:>6d}"
            )
        lines.append("")
        lines.append("cross-backend disagreement (counter-model vs rapl):")
        for profile in self.profiles:
            parts = []
            for period in self.periods:
                gap = self.disagreement(period, profile)
                if gap is not None:
                    parts.append(f"@{period:g}s {gap:+.2%}")
            if parts:
                lines.append(f"  {profile:<11} " + "  ".join(parts))
        worst = max(
            (abs(c.attribution_error)
             for c in self.cells.values() if c.backend != "rapl"),
            default=0.0,
        )
        lines.append("")
        lines.append(f"worst counter-model attribution error: {worst:.2%}")
        if self.audit_violations:
            lines.append("")
            lines.append(
                f"INVARIANT AUDIT: {len(self.audit_violations)} unexpected "
                "violation(s):"
            )
            for violation in self.audit_violations:
                lines.append(f"  {violation}")
        else:
            lines.append(
                "invariant audit: clean (ledgers, error envelopes, "
                "overhead monotonicity)"
            )
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_meter_sweep(
    app: str = DEFAULT_APP,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    periods: tuple[float, ...] = DEFAULT_PERIODS,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    *,
    threads: int = DEFAULT_THREADS,
    read_cost_s: float = DEFAULT_READ_COST_S,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    harness: Optional[BatchExecutor] = None,
) -> MeterSweepResult:
    """Run the (backend x cadence x fault profile) grid and audit it.

    Each cell is one :class:`RunSpec` with a :class:`MeterConfig`, so the
    grid caches, parallelises and replays like any other sweep.  After
    the runs, every record passes the ledger audits of
    :func:`repro.validate.records.check_record` (classified against its
    fault config and backend) and each fault-free backend family passes
    :func:`repro.validate.metering.check_overhead_monotone`.
    """
    from repro.errors import FaultConfigError
    from repro.faults.expectations import classify_violations
    from repro.validate.metering import check_overhead_monotone
    from repro.validate.records import check_record

    unknown = [p for p in profiles if p not in PROFILES]
    if unknown:
        raise FaultConfigError(
            f"unknown fault profile(s) {', '.join(sorted(unknown))}; "
            f"one of {', '.join(sorted(PROFILES))}"
        )
    harness = harness if harness is not None else default_executor()
    coords = [
        (backend, period, profile)
        for backend in backends
        for period in periods
        for profile in profiles
    ]
    specs: list[RunSpec] = []
    for backend, period, profile in coords:
        faults = PROFILES[profile]
        meter = MeterConfig(
            backend=backend, period_s=period, read_cost_s=read_cost_s
        )
        meter.validate()  # eagerly: a typo'd backend fails here, not in a worker
        specs.append(
            RunSpec(
                app, "gcc", "O2", threads=threads, scale=scale, seed=seed,
                faults=faults if not faults.inert else None,
                meter=meter,
                label=f"{app} {backend} @{period:g}s [{profile}]",
            )
        )
    records = harness.run(specs, sweep="metersweep")
    result = MeterSweepResult(seed=seed)
    for (backend, period, profile), record in zip(coords, records):
        result.cells[(backend, period, profile)] = MeterSweepCell(
            backend=backend, period_s=period, profile=profile, record=record
        )

    # Post-sweep invariant audit: per-record ledgers (fault-classified) ...
    for spec, record in zip(specs, records):
        classified = classify_violations(
            check_record(record), spec.faults, meter=spec.meter
        )
        result.audit_violations.extend(v for v in classified if not v.expected)
    # ... and the observer-effect shape across each fault-free family.
    for backend in backends:
        family = [
            cell.record
            for (b, _p, profile), cell in result.cells.items()
            if b == backend and profile == "none"
        ]
        result.audit_violations.extend(check_overhead_monotone(family))
    return result
