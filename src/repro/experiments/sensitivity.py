"""Policy sensitivity: how robust are the paper's thresholds?

The paper picks its thresholds empirically — 75 W per socket High / 50 W
Low "after looking at the 12 thread results", memory bands at 75 % / 25 %
of the knee — without exploring alternatives.  This study sweeps the
High-power threshold and the throttled thread count for one application
and reports the (time, energy) outcome of each setting, exposing the
Pareto structure behind the paper's choice:

* set the threshold too high and throttling never engages (fixed-16
  behaviour, no savings);
* set it too low and it engages on efficient phases too (time grows
  faster than power falls);
* the paper's 75 W sits on the knee of the trade-off for its workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.config import ThrottleConfig
from repro.harness import BatchExecutor, RunSpec, default_executor


@dataclass(frozen=True)
class SensitivityPoint:
    """Outcome of one policy setting."""

    power_high_w: float
    throttled_threads: int
    time_s: float
    energy_j: float
    watts: float
    activations: int
    time_throttled_s: float


@dataclass
class SensitivityResult:
    """One application's policy sweep."""

    app: str
    baseline_time_s: float
    baseline_energy_j: float
    points: list[SensitivityPoint] = field(default_factory=list)

    def energy_savings(self, point: SensitivityPoint) -> float:
        return 1.0 - point.energy_j / self.baseline_energy_j

    def time_cost(self, point: SensitivityPoint) -> float:
        return point.time_s / self.baseline_time_s - 1.0

    def best_energy(self) -> SensitivityPoint:
        return min(self.points, key=lambda p: p.energy_j)

    def format(self) -> str:
        lines = [
            f"policy sensitivity for {self.app} "
            f"(baseline {self.baseline_time_s:.2f} s / {self.baseline_energy_j:.0f} J):",
            f"{'P_high':>7} {'limit':>6} {'time':>8} {'energy':>9} {'watts':>7} "
            f"{'dE':>7} {'dT':>7} {'on(x)':>6} {'on(s)':>7}",
        ]
        best = self.best_energy()
        for p in self.points:
            mark = "  <-- min energy" if p is best else ""
            lines.append(
                f"{p.power_high_w:>7.0f} {p.throttled_threads:>6d} "
                f"{p.time_s:>8.2f} {p.energy_j:>9.1f} {p.watts:>7.1f} "
                f"{self.energy_savings(p):>+7.1%} {self.time_cost(p):>+7.1%} "
                f"{p.activations:>6d} {p.time_throttled_s:>7.2f}{mark}"
            )
        return "\n".join(lines)


def run_sensitivity(
    app: str = "lulesh",
    *,
    power_high_values: Sequence[float] = (65.0, 70.0, 75.0, 80.0, 90.0),
    throttled_threads_values: Sequence[int] = (12,),
    harness: Optional[BatchExecutor] = None,
) -> SensitivityResult:
    """Sweep the High-power threshold (and optionally the throttle depth)."""
    harness = harness if harness is not None else default_executor()
    grid = [
        (limit, high)
        for limit in throttled_threads_values
        for high in power_high_values
    ]
    specs = [RunSpec(app, "maestro", "O3", label=f"{app} baseline")]
    for limit, high in grid:
        config = ThrottleConfig(
            enabled=True,
            power_high_w=high,
            power_low_w=min(50.0, high - 10.0),
            throttled_threads=limit,
        )
        specs.append(
            RunSpec(app, "maestro", "O3", throttle=True,
                    throttle_config=config,
                    label=f"{app} P_high={high:.0f} limit={limit}")
        )
    records = harness.run(specs, sweep=f"sensitivity-{app}")
    baseline = records[0]
    result = SensitivityResult(
        app=app,
        baseline_time_s=baseline.time_s,
        baseline_energy_j=baseline.energy_j,
    )
    for (limit, high), measured in zip(grid, records[1:]):
        result.points.append(
            SensitivityPoint(
                power_high_w=high,
                throttled_threads=limit,
                time_s=measured.time_s,
                energy_j=measured.energy_j,
                watts=measured.watts,
                activations=measured.run.throttle_activations,
                time_throttled_s=measured.time_throttled_s,
            )
        )
    return result
