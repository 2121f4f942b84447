"""Roofline closed-form job cost model and per-run oracle.

Afzal et al. (PAPERS.md) validate cluster-scale scheduling with an
*analytic* roofline model of each application — time and power as closed
forms of the workload's compute/memory balance — instead of simulating
every job.  This module is that idea applied to our calibrated
profiles: :mod:`repro.calibration.fit` already expresses the
simulator's fluid model in closed form (``predicted_time`` plus the
piecewise-constant power integral behind ``fit_power_scale``), so a
job's service time and energy can be computed without running the
qthreads machinery at all.

Two consumers:

* :mod:`repro.sched.analytic` — the ``execution="analytic"`` path uses
  these closed forms *as* the job execution model, which is what makes
  million-job traces tractable (a handful of float ops per job);
* :func:`roofline_envelope` — the cheap per-run oracle: given a run's
  streaming :class:`~repro.sched.aggregate.SchedStats`, check that the
  aggregate service time and energy land inside the envelope the model
  predicts for the spec's app mix.  At scales where replaying the run
  under the full invariant battery is too slow, this is the tripwire
  that still catches a broken aggregation spine.

Everything is deterministic and linear in the job's work scale: both
``predicted_time`` and the energy integral scale linearly with
``work_s``, so one cached unit-scale point per (app, compiler, optlevel,
threads) prices any job with two multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.calibration.fit import (
    _interval_power_terms,
    aggregate_rate,
    socket_loads,
    stretch,
)
from repro.apps.registry import app_profile
from repro.config import PAPER_MACHINE, MachineConfig
from repro.validate.violations import Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.aggregate import SchedStats
    from repro.sched.spec import SchedSpec
    from repro.sched.workload import Job

#: Envelope slack for the full-simulation cross-check: the microsim
#: adds task-granularity quantisation, clamp throttling and daemon
#: overhead the closed form does not model, so per-run aggregates must
#: land within this factor of the roofline prediction, not on it.
ENVELOPE_FACTOR = 3.0


@dataclass(frozen=True)
class RooflinePoint:
    """Closed-form cost of one job configuration at unit work scale."""

    app: str
    threads: int
    time_s: float
    energy_j: float

    @property
    def avg_watts(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0


@lru_cache(maxsize=None)
def roofline_point(
    app: str,
    threads: int,
    compiler: str = "gcc",
    optlevel: str = "O2",
    machine: MachineConfig = PAPER_MACHINE,
) -> RooflinePoint:
    """Unit-scale (``scale=1``) time and energy for one configuration.

    Time mirrors :func:`repro.calibration.fit.predicted_time`; energy
    integrates the same piecewise-constant power schedule the power fit
    uses, with the profile's fitted ``power_scale`` (and per-phase power
    shapes) plugged in.  Both are linear in work, so callers scale the
    point by a job's ``scale`` instead of recomputing.
    """
    profile = app_profile(app, compiler, optlevel, machine=machine)
    shape = profile.shape
    mlp = machine.memory.mlp_per_core
    p_eff = shape.effective_threads(threads)

    # Serial section: one active core on socket 0.
    t_serial = profile.serial_work_s * stretch(
        shape.mu_serial, mlp * shape.mu_serial, shape.alpha, machine
    )
    loads_serial = [1] + [0] * (machine.sockets - 1)
    fixed, scale_w = _interval_power_terms(
        loads_serial, shape.mu_serial, shape.alpha, machine
    )
    energy = (fixed + profile.power_scale * scale_w) * t_serial
    total_t = t_serial

    # Parallel phases under the contention model.
    loads = socket_loads(p_eff, machine)
    for i, (weight, mu) in enumerate(shape.phases):
        t_phase = profile.parallel_work_s * weight / aggregate_rate(
            mu, shape.alpha, p_eff, machine, coherence=shape.coherence
        )
        fixed, scale_w = _interval_power_terms(
            loads, mu, shape.alpha, machine, coherence=shape.coherence
        )
        energy += (fixed + profile.phase_power_scale(i) * scale_w) * t_phase
        total_t += t_phase

    return RooflinePoint(
        app=app, threads=threads, time_s=total_t, energy_j=energy
    )


@lru_cache(maxsize=None)
def _paper_point(
    app: str, threads: int, compiler: str, optlevel: str
) -> RooflinePoint:
    """:func:`roofline_point` on the paper machine, keyed without it.

    :func:`job_cost` and the analytic dispatch loop look a point up for
    every job, and the cache key of ``roofline_point`` holds the nested
    frozen ``MachineConfig``, which is re-hashed field by field on every
    call.
    """
    return roofline_point(app, threads, compiler, optlevel)


def job_cost(job: "Job") -> RooflinePoint:
    """Roofline time/energy for one trace job (scaled by ``job.scale``).

    Jobs are priced on the paper machine, the only machine a scheduled
    cluster is built from.
    """
    unit = _paper_point(job.app, job.threads, job.compiler, job.optlevel)
    return RooflinePoint(
        app=job.app,
        threads=job.threads,
        time_s=unit.time_s * job.scale,
        energy_j=unit.energy_j * job.scale,
    )


# ----------------------------------------------------------------------
# the per-run oracle
# ----------------------------------------------------------------------
def _spec_bounds(
    spec: "SchedSpec", machine: MachineConfig = PAPER_MACHINE
) -> tuple[float, float, float, float]:
    """(min_t, max_t, min_e, max_e) per-job bounds for a spec's job mix.

    Jobs draw app from ``spec.apps``, threads from the workload thread
    pool, and scale from ``spec.scale * U(0.75, 1.25)``; the bounds are
    the extreme corners of that grid under the closed form.
    """
    from repro.sched.workload import THREAD_CHOICES

    points = [
        roofline_point(app, threads, machine=machine)
        for app in spec.apps
        for threads in THREAD_CHOICES
    ]
    lo_scale = spec.scale * 0.75
    hi_scale = spec.scale * 1.25
    min_t = min(p.time_s for p in points) * lo_scale
    max_t = max(p.time_s for p in points) * hi_scale
    min_e = min(p.energy_j for p in points) * lo_scale
    max_e = max(p.energy_j for p in points) * hi_scale
    return min_t, max_t, min_e, max_e


def roofline_envelope(
    spec: "SchedSpec",
    stats: "SchedStats",
    *,
    factor: float = ENVELOPE_FACTOR,
    machine: MachineConfig = PAPER_MACHINE,
) -> list[Violation]:
    """Check a run's aggregates against the roofline envelope.

    The mean per-job service time and energy must land inside the
    closed-form [min, max] corners of the spec's job mix, slackened by
    ``factor`` on both sides (the full simulation layers queueing-free
    effects the model does not price: clamp throttling, daemon overhead,
    task quantisation).  O(apps × thread choices) — cheap enough to run
    after every million-job sweep.
    """
    if stats.completed == 0:
        return []
    min_t, max_t, min_e, max_e = _spec_bounds(spec, machine=machine)
    violations: list[Violation] = []
    mean_t = stats.service_sum_s / stats.completed
    mean_e = stats.energy_sum_j / stats.completed
    if not (min_t / factor <= mean_t <= max_t * factor):
        violations.append(Violation(
            invariant="roofline-service-time",
            category="model",
            message=(
                f"mean job service time {mean_t:.4f} s outside roofline "
                f"envelope [{min_t / factor:.4f}, {max_t * factor:.4f}] s "
                f"over {stats.completed} jobs"
            ),
        ))
    if not (min_e / factor <= mean_e <= max_e * factor):
        violations.append(Violation(
            invariant="roofline-energy",
            category="model",
            message=(
                f"mean job energy {mean_e:.2f} J outside roofline "
                f"envelope [{min_e / factor:.2f}, {max_e * factor:.2f}] J "
                f"over {stats.completed} jobs"
            ),
        ))
    return violations
