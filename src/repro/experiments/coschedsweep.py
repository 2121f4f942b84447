"""Co-scheduling profiling sweep: apps × injectors × pressure levels.

For every probed application, run a solo baseline plus one co-run per
(injector, level) cell — all through the standard harness, so the sweep
is digest-cached, parallel and bit-identical across execution
paths.  The records reduce to a :class:`~repro.cosched.profile.ProfileStore`
(per-app sensitivity/intensity vectors) and a fitted
:class:`~repro.cosched.predictor.PredictorModel` — the inputs the
``predicted`` placement policy consumes.

Injector solo baselines are ordinary cells too: injectors are registry
apps, so ``CoschedSpec(app=<injector>, injector=None, app_level=L)``
measures the antagonist's own uncontended runtime, which the intensity
calculation divides by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cosched.corun import CoschedRecord
from repro.cosched.predictor import PredictorModel
from repro.cosched.profile import AppProfile, CoschedCell, ProfileStore
from repro.cosched.spec import CoschedSpec
from repro.harness import BatchExecutor, default_executor
from repro.sched.workload import DEFAULT_JOB_APPS

#: Applications profiled by default: the scheduler's trace mix.
DEFAULT_APPS: tuple[str, ...] = DEFAULT_JOB_APPS

#: Antagonists probed against (the two that actually contend).
DEFAULT_INJECTORS: tuple[str, ...] = ("inject-membw", "inject-coherence")

#: Pressure levels per injector.
DEFAULT_LEVELS: tuple[float, ...] = (0.5, 1.0)

DEFAULT_THREADS = 8
DEFAULT_SCALE = 0.15
DEFAULT_INJ_SCALE = 12.0


@dataclass
class CoschedSweepResult:
    """Profiling sweep outcome: records, reduced store, fitted model."""

    store: ProfileStore
    model: PredictorModel
    records: list[CoschedRecord] = field(default_factory=list)
    seed: int = 0

    def format(self) -> str:
        lines = [
            "COSCHED SWEEP: per-app contention sensitivity/intensity "
            f"(seed={self.seed})",
            "",
            f"{'app':<22}{'solo':>8}{'cell':>26}{'slowdown':>10}"
            f"{'inflicted':>11}",
        ]
        for profile in self.store.sorted_profiles():
            first = True
            for cell in profile.sorted_cells():
                head = profile.app if first else ""
                solo = f"{profile.solo_time_s:>7.2f}s" if first else " " * 8
                first = False
                lines.append(
                    f"{head:<22}{solo}"
                    f"{cell.injector + '@' + format(cell.level, 'g'):>26}"
                    f"{cell.slowdown:>9.2f}x{cell.inj_slowdown:>10.2f}x"
                )
            if first:  # no cells (injector-only profile)
                lines.append(
                    f"{profile.app:<22}{profile.solo_time_s:>7.2f}s"
                    f"{'(baseline only)':>26}{'':>10}{'':>11}"
                )
        lines.append("")
        lines.append(
            f"{'app':<22}{'sens slope':>12}{'intensity':>11}  (fitted)"
        )
        seen = set()
        for entry in self.model.entries:
            if entry.app in seen:
                continue
            seen.add(entry.app)
            lines.append(
                f"{entry.app:<22}{entry.sens_slope:>12.4f}"
                f"{entry.intensity:>11.4f}"
            )
        lines.append("")
        lines.append(f"profile store digest: {self.store.digest[:16]}")
        lines.append(f"predictor digest:     {self.model.digest[:16]}")
        return "\n".join(lines)


def sweep_specs(
    apps: Sequence[str] = DEFAULT_APPS,
    injectors: Sequence[str] = DEFAULT_INJECTORS,
    levels: Sequence[float] = DEFAULT_LEVELS,
    *,
    threads: int = DEFAULT_THREADS,
    scale: float = DEFAULT_SCALE,
    inj_scale: float = DEFAULT_INJ_SCALE,
    seed: int = 0,
) -> list[CoschedSpec]:
    """The full spec list: app solos, injector solos, co-run cells."""
    specs: list[CoschedSpec] = []
    for app in apps:
        specs.append(CoschedSpec(
            app=app, threads=threads, scale=scale, seed=seed,
            label=f"{app} solo",
        ))
    for injector in injectors:
        for level in levels:
            specs.append(CoschedSpec(
                app=injector, app_level=level, threads=threads,
                scale=inj_scale, seed=seed,
                label=f"{injector}@{level:g} solo",
            ))
    for app in apps:
        for injector in injectors:
            for level in levels:
                specs.append(CoschedSpec(
                    app=app, injector=injector, level=level,
                    threads=threads, inj_threads=threads,
                    scale=scale, inj_scale=inj_scale, seed=seed,
                    label=f"{app} vs {injector}@{level:g}",
                ))
    return specs


def reduce_records(
    specs: Sequence[CoschedSpec],
    records: Sequence[CoschedRecord],
) -> ProfileStore:
    """Reduce co-run records to per-app profiles.

    Slowdowns divide each co-run by the matching solo baseline: the
    app's own solo for sensitivity, the injector's level-matched solo
    for the inflicted (intensity) side.
    """
    solo: dict[tuple[str, float], CoschedRecord] = {}
    for spec, record in zip(specs, records):
        if spec.solo:
            solo[(spec.app, spec.app_level)] = record
    profiles: dict[str, list[CoschedCell]] = {}
    for spec, record in zip(specs, records):
        if spec.solo:
            profiles.setdefault(spec.app, [])
            continue
        app_solo = solo[(spec.app, spec.app_level)]
        inj_solo = solo[(spec.injector, spec.level)]
        profiles.setdefault(spec.app, []).append(CoschedCell(
            injector=spec.injector,
            level=spec.level,
            slowdown=record.app_time_s / app_solo.app_time_s,
            inj_slowdown=record.inj_time_s / inj_solo.app_time_s,
        ))
    built = []
    for spec, record in zip(specs, records):
        if not spec.solo or spec.app not in profiles:
            continue
        cells = profiles.pop(spec.app)
        built.append(AppProfile(
            app=spec.app,
            threads=spec.threads,
            scale=spec.scale,
            solo_time_s=record.app_time_s,
            solo_energy_j=record.app_energy_j,
            solo_watts=record.app_watts,
            solo_slowdown=record.app_time_s / record.app_time_s,
            cells=tuple(cells),
        ))
    return ProfileStore(profiles=tuple(built))


def run_cosched_sweep(
    apps: Sequence[str] = DEFAULT_APPS,
    injectors: Sequence[str] = DEFAULT_INJECTORS,
    levels: Sequence[float] = DEFAULT_LEVELS,
    *,
    threads: int = DEFAULT_THREADS,
    scale: float = DEFAULT_SCALE,
    inj_scale: float = DEFAULT_INJ_SCALE,
    seed: int = 0,
    harness: Optional[BatchExecutor] = None,
) -> CoschedSweepResult:
    """Run the profiling sweep and fit the predictor."""
    harness = harness if harness is not None else default_executor()
    specs = sweep_specs(
        apps, injectors, levels,
        threads=threads, scale=scale, inj_scale=inj_scale, seed=seed,
    )
    records = harness.run(specs, sweep="coschedsweep")
    store = reduce_records(specs, records)
    return CoschedSweepResult(
        store=store,
        model=PredictorModel.fit(store),
        records=list(records),
        seed=seed,
    )
