"""Fault sweep: how much energy-saving signal survives a noisy sensor path?

The headline robustness experiment.  For every named fault profile
(:data:`repro.faults.PROFILES`), rerun the paper's throttling comparison —
dynamic MAESTRO throttling vs fixed 16 threads, the Table IV-VII
configurations — with the profile's faults injected into the measurement
pipeline, and compare the dynamic-throttling energy savings against the
fault-free baseline.  A robust pipeline keeps finding (most of) the
savings even when reads fail, counters stick, cadence drifts and the
sampler stalls; a fragile one would throttle on garbage or never throttle
at all.

Reported per (profile, application):

* the dynamic-vs-fixed energy savings under faults;
* *signal survival* — those savings as a fraction of the fault-free
  savings (1.0 = the fault changed nothing; 0 = the signal vanished;
  negative = faults made throttling actively harmful);
* injected-event counts and the sample-quality histogram, so the abuse
  absorbed is visible next to the result it did (not) perturb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import FaultConfig
from repro.faults import PROFILES
from repro.harness import BatchExecutor, MeasurementRecord, RunSpec, default_executor
from repro.measure.energy import SampleQuality

#: The throttling applications whose power curves admit savings (the
#: paper's Tables IV-VII).  The sweep defaults to the two strongest.
DEFAULT_APPS: tuple[str, ...] = ("lulesh", "dijkstra")

#: Profile order for the report (baseline first).
DEFAULT_PROFILES: tuple[str, ...] = (
    "none",
    "flaky-msr",
    "msr-outage",
    "stuck",
    "noisy",
    "jitter",
    "stall",
    "default",
)


@dataclass
class FaultSweepCell:
    """One (profile, app) throttling comparison under injected faults."""

    profile: str
    app: str
    dynamic: MeasurementRecord
    fixed: MeasurementRecord

    @property
    def savings(self) -> float:
        """Fractional energy saved by dynamic throttling vs fixed 16."""
        return 1.0 - self.dynamic.energy_j / self.fixed.energy_j

    @property
    def fault_events(self) -> int:
        """Total injected events across both runs of this cell."""
        total = 0
        for record in (self.dynamic, self.fixed):
            if record.fault_stats is not None:
                total += sum(record.fault_stats.values())
        return total

    def quality_counts(self) -> dict[SampleQuality, int]:
        """Aggregate sample-quality histogram across both runs."""
        totals: dict[SampleQuality, int] = {q: 0 for q in SampleQuality}
        for record in (self.dynamic, self.fixed):
            for quality, count in record.quality_counts.items():
                totals[quality] += count
        return totals


@dataclass
class FaultSweepResult:
    """The full sweep, keyed by (profile, app)."""

    cells: dict[tuple[str, str], FaultSweepCell] = field(default_factory=dict)
    seed: int = 0

    @property
    def profiles(self) -> list[str]:
        seen: list[str] = []
        for profile, _app in self.cells:
            if profile not in seen:
                seen.append(profile)
        return seen

    @property
    def apps(self) -> list[str]:
        seen: list[str] = []
        for _profile, app in self.cells:
            if app not in seen:
                seen.append(app)
        return seen

    def baseline_savings(self, app: str) -> float:
        """Fault-free dynamic-throttling savings for ``app``."""
        return self.cells[("none", app)].savings

    def survival(self, profile: str, app: str) -> float:
        """Fraction of the fault-free savings that survived the profile."""
        base = self.baseline_savings(app)
        if base == 0.0:
            return 1.0
        return self.cells[(profile, app)].savings / base

    def format(self) -> str:
        lines = [
            "FAULT SWEEP: throttling energy savings under an unreliable "
            f"sensor path (seed={self.seed})",
            "",
            f"{'profile':<12}{'app':<12}{'savings':>9}{'survival':>10}"
            f"{'faults':>8}  quality (OK/RETRY/INTERP/WRAP?)",
        ]
        for (profile, app), cell in self.cells.items():
            quality = cell.quality_counts()
            qtext = "/".join(str(quality[q]) for q in SampleQuality)
            lines.append(
                f"{profile:<12}{app:<12}"
                f"{cell.savings:>8.1%}"
                f"{self.survival(profile, app):>9.0%}"
                f"{cell.fault_events:>8d}  {qtext}"
            )
        lines.append("")
        worst = min(
            (self.survival(p, a) for p, a in self.cells if p != "none"),
            default=1.0,
        )
        lines.append(f"worst-case signal survival: {worst:.0%}")
        return "\n".join(lines)


def run_fault_sweep(
    apps: tuple[str, ...] = DEFAULT_APPS,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    *,
    threads: int = 16,
    seed: int = 0,
    harness: Optional[BatchExecutor] = None,
) -> FaultSweepResult:
    """Run the throttling comparison under each fault profile.

    The fault-free ``none`` profile is always included (first): signal
    survival is defined relative to its savings.
    """
    from repro.errors import FaultConfigError

    unknown = [p for p in profiles if p not in PROFILES]
    if unknown:
        raise FaultConfigError(
            f"unknown fault profile(s) {', '.join(sorted(unknown))}; "
            f"one of {', '.join(sorted(PROFILES))}"
        )
    if "none" not in profiles:
        profiles = ("none", *profiles)
    harness = harness if harness is not None else default_executor()
    cells = [(profile_name, app) for profile_name in profiles for app in apps]
    specs: list[RunSpec] = []
    for profile_name, app in cells:
        config: FaultConfig = PROFILES[profile_name]
        specs.append(
            RunSpec(app, "maestro", "O3", threads=threads, throttle=True,
                    seed=seed, faults=config,
                    label=f"{app} [{profile_name}] dynamic")
        )
        specs.append(
            RunSpec(app, "maestro", "O3", threads=threads,
                    seed=seed, faults=config,
                    label=f"{app} [{profile_name}] fixed")
        )
    records = harness.run(specs, sweep="faultsweep")
    result = FaultSweepResult(seed=seed)
    for k, (profile_name, app) in enumerate(cells):
        result.cells[(profile_name, app)] = FaultSweepCell(
            profile=profile_name, app=app,
            dynamic=records[2 * k], fixed=records[2 * k + 1],
        )
    return result
