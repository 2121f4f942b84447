"""Per-application workload structure catalog and fitted profiles.

:class:`AppStructure` records what we *assert* about each application —
its contention response, phase shape and task granularity, with the
modelling rationale — and :func:`get_profile` turns it into a concrete
:class:`WorkloadProfile` by fitting the free parameters against the
paper's measurements (see :mod:`repro.calibration.fit`).

Contention exponents (``alpha``) by access pattern:

* ~1.0 — streaming with hardware prefetch: bandwidth saturates flat
  (LULESH, health, strassen).  These are the applications for which more
  threads never *hurt* time, only energy;
* ~1.5 — mixed access (machine default);
* 2.0  — irregular pointer/graph traversal (dijkstra): latency-bound
  dependent loads suffer from queueing, so 12 threads beat 16 (Table V);
* 3.0  — coherence storms: fine-grain task spawning and reduction cache
  lines ping-ponging between 16 cores (reduction, uncut fibonacci) —
  the regime where serial execution beats all parallel versions
  (Section II-C.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from repro.calibration.fit import (
    ShapeParams,
    fit_coherence_for_speedup,
    fit_mu_scale_for_speedup,
    fit_mu_scale_for_time_ratio,
    fit_power_scale,
    fit_serial_frac_for_speedup,
    fit_total_work,
)
from repro.calibration.paper_data import (
    SPEEDUP16,
    TABLE2_GCC,
    TABLE3_ICC,
    THROTTLE_TABLES,
    PaperRow,
)
from repro.calibration.residuals import residual_for
from repro.config import MachineConfig, PAPER_MACHINE
from repro.errors import CalibrationError, UnknownApplicationError, UnknownCompilerError
from repro.hw.core import Segment, invalid_solo_seconds

_new_tuple = tuple.__new__
_INF = math.inf


@dataclass(frozen=True)
class AppStructure:
    """Asserted structure of one application (pre-fit)."""

    name: str
    #: Contention exponent of the dominant access pattern.
    alpha: float
    #: Prior serial fraction (fitted instead when fit_mode='serial').
    serial_frac: float
    #: Memory intensity of the serial portion.
    mu_serial: float
    #: Parallel phase shapes: (weight, mu prior); mu is scaled by the fit.
    phases: tuple[tuple[float, float], ...]
    #: 'mu' — fit the intensity scale to the 16-thread speedup;
    #: 'serial' — fit the serial fraction (compute-bound apps);
    #: 'fixed' — structural, nothing fitted (mergesort's 2-task split).
    fit_mode: str
    #: Approximate leaf-task count the simulated program generates.
    tasks: int
    #: Structural parallelism cap (mergesort: 2), None = unbounded.
    max_parallelism: Optional[int] = None
    #: Per-phase power-scale multipliers (instruction-mix differences
    #: between phases); None = uniform.
    phase_power_shapes: Optional[tuple[float, ...]] = None


#: The catalog.  Phase shapes are structural: strassen alternates
#: submatrix additions (memory-heavy) with leaf multiplies; LULESH
#: iterates stress/force (mixed), position/velocity streaming updates
#: (memory-bound) and EOS (mixed).
APP_STRUCTURES: dict[str, AppStructure] = {
    "reduction": AppStructure(
        # The reduction variable's cache line bounces between all active
        # cores: knee-free coherence cost dominates (serial beats every
        # parallel configuration by 220% at 16 threads).
        "reduction", alpha=1.5, serial_frac=0.005, mu_serial=0.5,
        phases=((1.0, 0.9),), fit_mode="coherence", tasks=512,
    ),
    "nqueens": AppStructure(
        "nqueens", alpha=1.5, serial_frac=0.002, mu_serial=0.1,
        phases=((1.0, 0.08),), fit_mode="serial", tasks=1500,
    ),
    "mergesort": AppStructure(
        # Untuned micro-benchmark: one top-level split into two sequential
        # sorts plus a serial merge => scales to exactly 2 threads.
        # serial_frac 0.081 is the merge share that yields speedup 1.85.
        "mergesort", alpha=1.5, serial_frac=0.081, mu_serial=0.85,
        phases=((1.0, 0.75),), fit_mode="fixed", tasks=2, max_parallelism=2,
    ),
    "fibonacci": AppStructure(
        # No cutoff: millions of two-line tasks; queue/stack cache lines
        # ping-pong between every core from the second thread onward, so
        # the slowdown is knee-free coherence cost, fitted directly.
        "fibonacci", alpha=1.5, serial_frac=0.001, mu_serial=0.3,
        phases=((1.0, 0.85),), fit_mode="coherence", tasks=1800,
    ),
    "dijkstra": AppStructure(
        "dijkstra", alpha=2.0, serial_frac=0.01, mu_serial=0.5,
        phases=((1.0, 0.5),), fit_mode="mu", tasks=1500,
    ),
    "bots-alignment-for": AppStructure(
        "bots-alignment-for", alpha=1.5, serial_frac=0.003, mu_serial=0.2,
        phases=((1.0, 0.12),), fit_mode="serial", tasks=1000,
    ),
    "bots-alignment-single": AppStructure(
        "bots-alignment-single", alpha=1.5, serial_frac=0.003, mu_serial=0.2,
        phases=((1.0, 0.12),), fit_mode="serial", tasks=1000,
    ),
    "bots-fib": AppStructure(
        # With cutoff: coarse tasks amortise overheads => near-linear.
        "bots-fib", alpha=1.5, serial_frac=0.002, mu_serial=0.2,
        phases=((1.0, 0.10),), fit_mode="serial", tasks=1024,
    ),
    "bots-health": AppStructure(
        "bots-health", alpha=1.0, serial_frac=0.004, mu_serial=0.5,
        phases=((1.0, 0.8),), fit_mode="mu", tasks=1500,
    ),
    "bots-nqueens": AppStructure(
        "bots-nqueens", alpha=1.5, serial_frac=0.002, mu_serial=0.1,
        phases=((1.0, 0.10),), fit_mode="serial", tasks=1000,
    ),
    "bots-sort": AppStructure(
        "bots-sort", alpha=1.5, serial_frac=0.004, mu_serial=0.6,
        phases=((1.0, 0.5),), fit_mode="mu", tasks=2048,
    ),
    "bots-sparselu-for": AppStructure(
        "bots-sparselu-for", alpha=1.5, serial_frac=0.003, mu_serial=0.3,
        phases=((1.0, 0.15),), fit_mode="serial", tasks=800,
    ),
    "bots-sparselu-single": AppStructure(
        "bots-sparselu-single", alpha=1.5, serial_frac=0.003, mu_serial=0.3,
        phases=((1.0, 0.15),), fit_mode="serial", tasks=800,
    ),
    "bots-strassen": AppStructure(
        # Submatrix additions are strided whole-matrix sweeps competing
        # with seven sibling subtrees: super-linear contention response.
        "bots-strassen", alpha=1.4, serial_frac=0.005, mu_serial=0.6,
        phases=((0.55, 0.85), (0.45, 0.98)), fit_mode="mu", tasks=1372,
    ),
    "lulesh": AppStructure(
        "lulesh", alpha=1.15, serial_frac=0.01, mu_serial=0.6,
        phases=((0.45, 0.85), (0.35, 0.98), (0.2, 0.92)), fit_mode="mu",
        tasks=3600,
    ),
}

APP_NAMES: tuple[str, ...] = tuple(APP_STRUCTURES)

#: Per-(app, compiler) speedup targets that differ from the default
#: (ICC's fibonacci is transformed by the optimiser into a compute-bound
#: near-recursive kernel: 13.5 s at 143 W across all -O levels, scaling
#: roughly like the cutoff version).
SPEEDUP_OVERRIDES: dict[tuple[str, str], float] = {
    ("fibonacci", "icc"): 10.0,
}

#: Structural overrides per (app, compiler).  ICC's optimizer transforms
#: the naive fibonacci into a coarse compute-bound kernel (13.5 s at
#: 143 W, identical across -O levels): no task storm, no coherence
#: traffic — a different program shape than what GCC runs.
COMPILER_STRUCTURE_OVERRIDES: dict[tuple[str, str], dict] = {
    ("fibonacci", "icc"): {
        "phases": ((1.0, 0.25),),
        "fit_mode": "mu",
        "mu_serial": 0.2,
    },
}

#: Structure overrides for the Section-IV (MAESTRO) configurations.
#:
#: The Section-IV runs use larger inputs (dijkstra takes 16.3 s under
#: MAESTRO vs 4.5 s in Tables I-III) whose serial sections — dijkstra's
#: priority-queue pops, health's per-step setup, strassen's top-level
#: joins — are long enough to register as whole low-power daemon windows.
#: That phase contrast matters for the reproduction: with the *same*
#: average watts, the parallel bursts then peak above the 75 W/socket
#: High threshold (arming the throttle) while the serial dips fall below
#: both Low thresholds (disarming it), which is what produces the
#: partial-throttling behaviour of Tables V-VII.  Averages are untouched:
#: the power fit redistributes the same energy between the phases.
#: Serial fractions here are fractions of *work*; at 16 threads the
#: parallel work compresses ~10x while serial does not, so a work
#: fraction of ~0.02-0.03 yields the ~10-15% of wall time in serial
#: dips that the window dynamics need.
MAESTRO_OVERRIDES: dict[str, dict] = {
    "dijkstra": {"serial_frac": 0.020, "mu_serial": 0.30},
    "bots-health": {"serial_frac": 0.030, "mu_serial": 0.35},
    # Strassen's Section-IV behaviour ("most of the execution was done
    # with 16 threads", yet dynamic is both fastest and coolest) requires
    # its real phase contrast: compute-bound leaf multiplies dominate
    # time (the throttle stays disarmed: memory LOW), while the short
    # AVX addition/combine sweeps are simultaneously power- and
    # memory-HIGH (the throttle arms exactly there, where 12 threads
    # outrun 16).  Weights/intensities are structural, so no kappa fit;
    # the addition phase draws ~1.7x the multiply phase's issue power.
    "bots-strassen": {
        "serial_frac": 0.015,
        "mu_serial": 0.35,
        "phases": ((0.87, 0.02), (0.13, 0.98)),
        "fit_mode": "fixed",
        "phase_power_shapes": (1.0, 1.7),
    },
}


@dataclass(frozen=True)
class WorkloadProfile:
    """Concrete, fitted parameters for one (app, compiler, optlevel)."""

    app: str
    compiler: str
    optlevel: str
    shape: ShapeParams
    total_work_s: float
    power_scale: float
    tasks: int
    #: The measurements this profile was fitted to (16-thread row).
    target: PaperRow
    #: Per-phase multipliers on power_scale (None = uniform).
    power_shapes: Optional[tuple[float, ...]] = None

    # -- derived quantities -------------------------------------------
    @property
    def alpha(self) -> float:
        return self.shape.alpha

    @property
    def serial_work_s(self) -> float:
        """Solo work executed serially by the program's master."""
        return self.total_work_s * self.shape.serial_frac

    @property
    def parallel_work_s(self) -> float:
        """Solo work distributed over parallel tasks."""
        return self.total_work_s * (1.0 - self.shape.serial_frac)

    @property
    def num_phases(self) -> int:
        return len(self.shape.phases)

    def phase_weight(self, i: int) -> float:
        return self.shape.phases[i][0]

    def phase_mu(self, i: int) -> float:
        return self.shape.phases[i][1]

    def phase_work_s(self, i: int) -> float:
        """Solo work of parallel phase ``i``."""
        return self.parallel_work_s * self.phase_weight(i)

    # -- segment constructors (what application code uses) -------------
    def phase_power_scale(self, i: int) -> float:
        """Power scale of phase ``i`` (base scale times the phase shape)."""
        if self.power_shapes is None:
            return self.power_scale
        return self.power_scale * self.power_shapes[i]

    @cached_property
    def _phase_constants(self) -> tuple[tuple, ...]:
        """Validated ``(mu, power_scale, alpha, coherence)`` per phase.

        Built (and validated through :class:`Segment`) on first use, so
        :meth:`work` only has to check each call's duration.
        """
        alpha = self.shape.alpha
        coherence = self.shape.coherence
        return tuple(
            Segment(0.0, self.phase_mu(i), self.phase_power_scale(i), alpha,
                    coherence)[1:5]
            for i in range(self.num_phases)
        )

    @cached_property
    def _serial_constants(self) -> tuple:
        """Validated ``(mu, power_scale, alpha, coherence)`` of serial work."""
        return Segment(
            0.0, self.shape.mu_serial, self.power_scale, self.shape.alpha
        )[1:5]

    def work(self, solo_seconds: float, phase: int = 0, *, tag: str = "") -> Segment:
        """A parallel-phase work segment with this profile's character."""
        mu, scale, alpha, coherence = self._phase_constants[phase]
        if not 0.0 <= solo_seconds < _INF:
            raise invalid_solo_seconds(solo_seconds)
        return _new_tuple(
            Segment,
            (solo_seconds, mu, scale, alpha, coherence,
             tag or f"{self.app}:p{phase}"),
        )

    def serial_work(self, solo_seconds: float, *, tag: str = "") -> Segment:
        """A serial-section work segment."""
        mu, scale, alpha, coherence = self._serial_constants
        if not 0.0 <= solo_seconds < _INF:
            raise invalid_solo_seconds(solo_seconds)
        return _new_tuple(
            Segment,
            (solo_seconds, mu, scale, alpha, coherence,
             tag or f"{self.app}:serial"),
        )


def get_structure(app: str) -> AppStructure:
    """Structure catalog entry for ``app``."""
    try:
        return APP_STRUCTURES[app]
    except KeyError:
        raise UnknownApplicationError(
            f"unknown application {app!r}; known: {', '.join(APP_NAMES)}"
        ) from None


def _target_row(app: str, compiler: str, optlevel: str) -> PaperRow:
    if compiler == "gcc":
        table = TABLE2_GCC
    elif compiler == "icc":
        table = TABLE3_ICC
    elif compiler == "maestro":
        entry = THROTTLE_TABLES.get(app)
        if entry is None:
            raise CalibrationError(
                f"{app!r} is not one of the paper's throttling applications"
            )
        return entry["fixed16"]
    else:
        raise UnknownCompilerError(f"unknown compiler {compiler!r} (gcc/icc/maestro)")
    rows = table.get(app)
    if rows is None:
        raise CalibrationError(
            f"the paper does not report {app!r} under {compiler}"
        )
    row = rows.get(optlevel)
    if row is None:
        raise CalibrationError(f"no {optlevel!r} row for {app!r} under {compiler}")
    return row


@lru_cache(maxsize=None)
def get_profile(
    app: str,
    compiler: str = "gcc",
    optlevel: str = "O2",
    machine: MachineConfig = PAPER_MACHINE,
) -> WorkloadProfile:
    """Fit and cache the profile for (app, compiler, optlevel).

    ``compiler='maestro'`` selects the Section-IV configuration: targets
    come from the 16-fixed rows of Tables IV-VII and the memory intensity
    is fitted to the 12-vs-16-thread time ratio (the quantity that
    decides whether throttling can pay off).
    """
    structure = get_structure(app)
    row = _target_row(app, compiler, optlevel)
    serial_frac = structure.serial_frac
    mu_serial = structure.mu_serial
    phases = structure.phases
    fit_mode = structure.fit_mode
    power_shapes = structure.phase_power_shapes
    comp_override = COMPILER_STRUCTURE_OVERRIDES.get((app, compiler), {})
    phases = comp_override.get("phases", phases)
    fit_mode = comp_override.get("fit_mode", fit_mode)
    mu_serial = comp_override.get("mu_serial", mu_serial)
    if compiler == "maestro":
        override = MAESTRO_OVERRIDES.get(app, {})
        serial_frac = override.get("serial_frac", serial_frac)
        mu_serial = override.get("mu_serial", mu_serial)
        phases = override.get("phases", phases)
        fit_mode = override.get("fit_mode", fit_mode)
        power_shapes = override.get("phase_power_shapes", power_shapes)
    base = ShapeParams(
        serial_frac=serial_frac,
        mu_serial=mu_serial,
        phases=phases,
        alpha=structure.alpha,
        max_parallelism=structure.max_parallelism,
    )

    if compiler == "maestro":
        tables = THROTTLE_TABLES[app]
        ratio = tables["fixed12"].time_s / tables["fixed16"].time_s
        shape = fit_mu_scale_for_time_ratio(base, ratio, machine=machine)
    elif fit_mode == "mu":
        speedup = SPEEDUP_OVERRIDES.get((app, compiler), SPEEDUP16[app])
        shape = fit_mu_scale_for_speedup(base, speedup, machine=machine)
    elif fit_mode == "serial":
        speedup = SPEEDUP_OVERRIDES.get((app, compiler), SPEEDUP16[app])
        shape = fit_serial_frac_for_speedup(base, speedup, machine=machine)
    elif fit_mode == "coherence":
        speedup = SPEEDUP_OVERRIDES.get((app, compiler), SPEEDUP16[app])
        shape = fit_coherence_for_speedup(base, speedup, machine=machine)
    elif fit_mode == "fixed":
        shape = base
    else:
        raise CalibrationError(f"unknown fit mode {fit_mode!r}")

    work_corr, power_corr, mu_corr = residual_for(app, compiler)
    if mu_corr != 1.0:
        # Empirical intensity correction (simulated 12-vs-16-thread ratio
        # differs slightly from the analytic model's because real task
        # graphs quantise work); applied before the work/power solves so
        # they see the corrected shape.
        shape = ShapeParams(
            serial_frac=shape.serial_frac,
            mu_serial=shape.mu_serial,
            phases=tuple(
                (w, min(0.98, mu * mu_corr)) for w, mu in shape.phases
            ),
            alpha=shape.alpha,
            max_parallelism=shape.max_parallelism,
            coherence=shape.coherence,
        )
    work = fit_total_work(shape, row.time_s, machine=machine)
    power_scale = fit_power_scale(
        shape, work, row.watts, machine=machine, power_shapes=power_shapes
    )
    work *= work_corr
    power_scale = min(3.0, max(0.25, power_scale * power_corr))
    return WorkloadProfile(
        app=app,
        compiler=compiler,
        optlevel=optlevel,
        shape=shape,
        total_work_s=work,
        power_scale=power_scale,
        tasks=structure.tasks,
        target=row,
        power_shapes=power_shapes,
    )
