"""Footnote 2: the cold-system effect.

"Of 100 tests run on an initially cold system, the first run always used
less energy and drew less power.  For example, on the first run the NAS
benchmark BT.C used 3.2% less energy (24666 J vs 25477 J) and lower
power (151.0 W vs 155.8 W) than later runs with the same execution
time."

The reproduction runs the same long, hot workload twice back-to-back on
an initially cold node: the first run sees lower die temperature, hence
lower leakage power, hence less energy for identical work; by the second
run the node has warmed to steady state.  LULESH (the longest hot
workload in the suite) stands in for NAS BT.C.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.apps import build_app
from repro.config import PAPER_MACHINE, RuntimeConfig
from repro.harness import telemetry as tel
from repro.openmp import OmpEnv
from repro.qthreads import Runtime
from repro.qthreads.runtime import RunResult


@dataclass
class ColdStartResult:
    """Back-to-back cold/warm runs of the same workload."""

    cold: RunResult
    warm: RunResult

    @property
    def energy_savings(self) -> float:
        """Fraction less energy the cold run used (paper: 3.2%)."""
        return 1.0 - self.cold.energy_j / self.warm.energy_j

    @property
    def power_delta_w(self) -> float:
        """How much lower the cold run's average power was (paper: 4.8 W)."""
        return self.warm.avg_power_w - self.cold.avg_power_w

    def format(self) -> str:
        return (
            "Cold-start effect (paper footnote 2: first run 3.2% less energy):\n"
            f"  cold run: {self.cold.elapsed_s:8.2f} s  {self.cold.energy_j:9.1f} J  "
            f"{self.cold.avg_power_w:6.1f} W  (final temps "
            f"{', '.join(f'{t:.1f}C' for t in self.cold.final_temps_degc)})\n"
            f"  warm run: {self.warm.elapsed_s:8.2f} s  {self.warm.energy_j:9.1f} J  "
            f"{self.warm.avg_power_w:6.1f} W\n"
            f"  cold run used {self.energy_savings:.1%} less energy, "
            f"{self.power_delta_w:.1f} W less power"
        )


def run_cold_start(
    app: str = "lulesh",
    compiler: str = "gcc",
    optlevel: str = "O2",
    threads: int = 16,
    *,
    bus: Optional[tel.TelemetryBus] = None,
) -> ColdStartResult:
    """Run a workload twice on an initially cold node.

    The two runs share one node (the first must warm it for the second),
    so this experiment is inherently serial and uncacheable — it reports
    through the harness telemetry bus but cannot fan out.
    """
    bus = bus if bus is not None else tel.TelemetryBus()
    runtime = Runtime(
        PAPER_MACHINE, RuntimeConfig(num_threads=threads), warm=False
    )
    env = OmpEnv(num_threads=threads)
    results: list[RunResult] = []
    for index, phase in enumerate(("cold", "warm")):
        bus.emit(tel.RunStarted(sweep="coldstart", index=index, total=2,
                                label=f"{app} {phase}"))
        t0 = time.perf_counter()
        run = runtime.run(build_app(app, env, compiler=compiler, optlevel=optlevel))
        results.append(run)
        bus.emit(tel.RunFinished(
            sweep="coldstart", index=index, total=2, label=f"{app} {phase}",
            time_s=run.elapsed_s, energy_j=run.energy_j,
            watts=run.avg_power_w, wall_s=time.perf_counter() - t0,
        ))
    return ColdStartResult(cold=results[0], warm=results[1])
