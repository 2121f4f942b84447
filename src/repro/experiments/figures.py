"""Figures 1-4: speedup and normalized energy vs thread count.

* Figure 1 — SIMPLE (micro-benchmarks) + LULESH, GCC
* Figure 2 — SIMPLE + LULESH, ICC
* Figure 3 — BOTS, GCC
* Figure 4 — BOTS, ICC

Each figure has two panels: speedup ``T(1)/T(p)`` and energy normalized
to one thread ``E(p)/E(1)``.  The paper's observations checked by the
test suite:

* nqueens scales to 16 threads, dijkstra to ~8, mergesort to ~2;
* serial fibonacci and reduction beat every parallel configuration
  (fibonacci 16 threads ~50% slower than serial; reduction ~220%);
* most BOTS benchmarks are near-linear; health (6.7), sort (12.6),
  strassen (4.9) and lulesh (4.0) fall short;
* for the poor scalers the energy minimum occurs below 16 threads, with
  a 17% (lulesh) to 30% (dijkstra) rise at 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.curves import ScalingPoint, ScalingSeries
from repro.harness import BatchExecutor, RunSpec, default_executor

#: Default thread sweep (the paper sweeps 1..16; powers of two plus the
#: 12-thread point keep the harness fast while preserving the shape).
SWEEP_THREADS: tuple[int, ...] = (1, 2, 4, 8, 12, 16)

#: Panel memberships.
SIMPLE_APPS: tuple[str, ...] = ("reduction", "nqueens", "mergesort", "fibonacci", "dijkstra")
FIG12_APPS: tuple[str, ...] = SIMPLE_APPS + ("lulesh",)
BOTS_APPS: tuple[str, ...] = (
    "bots-alignment-for",
    "bots-alignment-single",
    "bots-fib",
    "bots-health",
    "bots-nqueens",
    "bots-sort",
    "bots-sparselu-single",
    "bots-strassen",
)

#: The figures elide fibonacci and reduction from the GCC speedup panel
#: "to preserve scale for readability" — we keep them in the data.
FIGURES: dict[str, tuple[tuple[str, ...], str]] = {
    "fig1": (FIG12_APPS, "gcc"),
    "fig2": (FIG12_APPS, "icc"),
    "fig3": (BOTS_APPS, "gcc"),
    "fig4": (BOTS_APPS, "icc"),
}


@dataclass
class FigureResult:
    """One figure's sweep data."""

    figure: str
    compiler: str
    series: dict[str, ScalingSeries] = field(default_factory=dict)

    def format(self) -> str:
        lines = [f"{self.figure.upper()} ({self.compiler.upper()}): speedup and normalized energy"]
        for app in sorted(self.series):
            lines.append(self.series[app].format())
        return "\n".join(lines)


def scaling_specs(
    app: str,
    compiler: str,
    optlevel: str = "O2",
    threads: tuple[int, ...] = SWEEP_THREADS,
) -> list[RunSpec]:
    """One spec per thread count of a scaling sweep."""
    return [
        RunSpec(app, compiler, optlevel, threads=p,
                label=f"{app} {compiler} t{p}")
        for p in threads
    ]


def run_scaling_series(
    app: str,
    compiler: str,
    optlevel: str = "O2",
    threads: tuple[int, ...] = SWEEP_THREADS,
    *,
    harness: Optional[BatchExecutor] = None,
) -> ScalingSeries:
    """Sweep one application over thread counts."""
    harness = harness if harness is not None else default_executor()
    records = harness.run(scaling_specs(app, compiler, optlevel, threads),
                          sweep=f"scaling-{app}")
    points = [
        ScalingPoint(threads=p, time_s=r.time_s, energy_j=r.energy_j)
        for p, r in zip(threads, records)
    ]
    return ScalingSeries(app=app, compiler=compiler, points=points)


def run_figure(
    figure: str,
    threads: tuple[int, ...] = SWEEP_THREADS,
    apps: tuple[str, ...] | None = None,
    *,
    harness: Optional[BatchExecutor] = None,
) -> FigureResult:
    """Regenerate one of Figures 1-4 (all apps x threads in one sweep)."""
    if figure not in FIGURES:
        raise KeyError(f"unknown figure {figure!r}; one of {sorted(FIGURES)}")
    harness = harness if harness is not None else default_executor()
    default_apps, compiler = FIGURES[figure]
    apps = apps if apps is not None else default_apps
    specs = [
        spec
        for app in apps
        for spec in scaling_specs(app, compiler, threads=threads)
    ]
    records = harness.run(specs, sweep=figure)
    out = FigureResult(figure=figure, compiler=compiler)
    per_app = len(threads)
    for k, app in enumerate(apps):
        chunk = records[k * per_app:(k + 1) * per_app]
        out.series[app] = ScalingSeries(
            app=app,
            compiler=compiler,
            points=[
                ScalingPoint(threads=p, time_s=r.time_s, energy_j=r.energy_j)
                for p, r in zip(threads, chunk)
            ],
        )
    return out
