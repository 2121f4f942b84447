"""Speedup and normalized-energy series (the figures' data model).

Figures 1-4 plot, per application, speedup ``T(1)/T(p)`` and energy
normalized to the single-thread run ``E(p)/E(1)`` against thread count.
:class:`ScalingSeries` holds one application's sweep and computes both,
plus the figure-level observations the paper calls out (the thread count
of minimum energy, the energy rise from that minimum to 16 threads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ScalingPoint:
    """One (threads, time, energy) measurement of a sweep."""

    threads: int
    time_s: float
    energy_j: float

    @property
    def watts(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0


@dataclass
class ScalingSeries:
    """One application's thread sweep."""

    app: str
    compiler: str
    points: list[ScalingPoint]

    def __post_init__(self) -> None:
        self.points = sorted(self.points, key=lambda p: p.threads)
        if not self.points:
            raise ValueError("a scaling series needs at least one point")
        if self.points[0].threads != 1:
            raise ValueError("scaling series must include the 1-thread baseline")

    @property
    def baseline(self) -> ScalingPoint:
        return self.points[0]

    def speedup(self, threads: int) -> float:
        """T(1) / T(threads)."""
        return self.baseline.time_s / self._at(threads).time_s

    def normalized_energy(self, threads: int) -> float:
        """E(threads) / E(1)."""
        return self._at(threads).energy_j / self.baseline.energy_j

    def speedups(self) -> list[tuple[int, float]]:
        return [(p.threads, self.speedup(p.threads)) for p in self.points]

    def _at(self, threads: int) -> ScalingPoint:
        for point in self.points:
            if point.threads == threads:
                return point
        raise KeyError(f"no {threads}-thread point in series for {self.app}")

    @property
    def thread_counts(self) -> list[int]:
        return [p.threads for p in self.points]

    @property
    def min_energy_threads(self) -> int:
        """Thread count at which total energy is minimal."""
        return min(self.points, key=lambda p: p.energy_j).threads

    @property
    def energy_rise_at_max_threads(self) -> float:
        """Fractional energy increase from the minimum to the largest sweep
        point (the paper reports 17% for lulesh up to 30% for dijkstra)."""
        max_point = self.points[-1]
        min_energy = min(p.energy_j for p in self.points)
        if min_energy <= 0:
            return 0.0
        return max_point.energy_j / min_energy - 1.0

    def format(self) -> str:
        """Two-column text rendering of the series."""
        lines = [f"{self.app} ({self.compiler}): threads  speedup  E/E1"]
        for point in self.points:
            lines.append(
                f"  {point.threads:7d}  {self.speedup(point.threads):7.2f}"
                f"  {self.normalized_energy(point.threads):6.3f}"
                f"   ({point.time_s:.2f} s, {point.energy_j:.0f} J, {point.watts:.1f} W)"
            )
        return "\n".join(lines)


def ascii_chart(
    series: Sequence[ScalingSeries],
    *,
    value: str = "speedup",
    width: int = 60,
    height: int = 16,
) -> str:
    """Rough ASCII plot of several series (speedup or energy), for the CLI."""
    if not series:
        return "(no series)"
    if value == "speedup":
        get = lambda s, t: s.speedup(t)
    elif value == "energy":
        get = lambda s, t: s.normalized_energy(t)
    else:
        raise ValueError(f"value must be 'speedup' or 'energy', got {value!r}")
    threads = sorted({t for s in series for t in s.thread_counts})
    vals = [(s, [(t, get(s, t)) for t in threads if t in s.thread_counts]) for s in series]
    vmax = max(v for _, pts in vals for _, v in pts)
    vmin = min(0.0, min(v for _, pts in vals for _, v in pts))
    grid = [[" "] * width for _ in range(height)]
    tmax = max(threads)
    markers = "ox+*#%@&"
    for idx, (s, pts) in enumerate(vals):
        mark = markers[idx % len(markers)]
        for t, v in pts:
            x = min(width - 1, int((t / tmax) * (width - 1)))
            y = min(height - 1, int((v - vmin) / (vmax - vmin + 1e-12) * (height - 1)))
            grid[height - 1 - y][x] = mark
    lines = ["".join(row) for row in grid]
    legend = "  ".join(
        f"{markers[i % len(markers)]}={s.app}" for i, (s, _) in enumerate(vals)
    )
    return "\n".join(lines + [f"(x: 1..{tmax} threads, y: {value} 0..{vmax:.1f})", legend])
