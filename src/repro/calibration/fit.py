"""Analytic performance/power model and profile fitting.

Mirrors the simulator's fluid model in closed form so profile parameters
can be solved directly:

* time:  ``T(p) = W*f*stretch_serial + sum_i W*(1-f)*w_i / R_i(p)`` where
  phase ``i`` has weight ``w_i`` and memory intensity ``mu_i``, and
  ``R_i(p)`` is the aggregate execution rate of ``p`` pinned workers
  (socket-0 fills first) under the memory contention model of
  :mod:`repro.hw.memory`;
* power: piecewise-constant per schedule interval using the same terms as
  :mod:`repro.hw.power`, linear in the unknown ``power_scale``.

Free parameters and the measurements that pin them:

* the memory-intensity scale ``kappa`` — from the 16-thread speedup
  target (Figures 1-4 / Section II-C.4) or, for the throttling
  applications, from the 12-vs-16-thread time ratio (Tables IV-VII);
* or alternatively the serial fraction (for compute-bound, near-linear
  applications where memory intensity is structurally low);
* total solo work ``W`` — from the 16-thread execution time;
* ``power_scale`` — from the 16-thread average Watts.

Everything not listed above is *predicted*, not fitted.

Each one-dimensional fit is a bracketed root solve by :func:`brentq`, an
in-tree port of Brent's method as SciPy implements it in C, so the
package needs no SciPy at run time and every fitted bit matches what
SciPy's own ``brentq`` returns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import MachineConfig, PAPER_MACHINE
from repro.errors import CalibrationError

#: Warm-die leakage factor used during fitting (the simulator computes it
#: dynamically; at the warm steady state it is within ~1% of this).
_WARM_LEAK = 1.01

#: Highest memory fraction a phase may be assigned (mu = 1 would mean a
#: core issuing zero instructions).
_MU_CAP = 0.98


# ----------------------------------------------------------------------
# performance model
# ----------------------------------------------------------------------
def socket_loads(p: int, machine: MachineConfig = PAPER_MACHINE) -> list[int]:
    """Active cores per socket for ``p`` scatter-pinned threads.

    Thread i runs on socket ``i % sockets`` (see the scheduler), so the
    load splits as evenly as possible.
    """
    if p < 0:
        raise CalibrationError(f"thread count must be non-negative, got {p!r}")
    if p > machine.total_cores:
        raise CalibrationError(f"{p} threads exceed {machine.total_cores} cores")
    sockets = machine.sockets
    return [
        p // sockets + (1 if s < p % sockets else 0) for s in range(sockets)
    ]


def stretch(mu: float, demand: float, alpha: float,
            machine: MachineConfig = PAPER_MACHINE) -> float:
    """Execution stretch of a core running mu-work under socket demand."""
    knee = machine.memory.knee_refs
    sigma = 1.0 if demand <= knee else (demand / knee) ** alpha
    return (1.0 - mu) + mu * sigma


def aggregate_rate(mu: float, alpha: float, p: int,
                   machine: MachineConfig = PAPER_MACHINE,
                   coherence: float = 0.0) -> float:
    """Total solo-work throughput of ``p`` threads running mu-work.

    Assumes the work-stealing scheduler balances load across unequally
    loaded sockets, so rates are additive.  ``coherence`` adds the
    node-wide, knee-free sharing stretch (see hw.core.Segment).
    """
    if p <= 0:
        raise CalibrationError(f"thread count must be positive, got {p!r}")
    mlp = machine.memory.mlp_per_core
    knee = machine.memory.knee_refs
    coh = coherence * (p - 1) if p > 1 else 0.0
    total = 0.0
    for n in socket_loads(p, machine):
        if n == 0:
            continue
        demand = n * mlp * mu
        sigma = 1.0 if demand <= knee else (demand / knee) ** alpha
        total += n / ((1.0 - mu) + mu * (sigma + coh))
    return total


@dataclass(frozen=True)
class ShapeParams:
    """The structural inputs to the analytic model (work normalised to 1)."""

    serial_frac: float
    mu_serial: float
    #: Parallel phases: (weight, mu) with weights summing to 1.
    phases: tuple[tuple[float, float], ...]
    alpha: float
    #: Structural parallelism cap (e.g. a two-task mergesort can use at
    #: most 2 threads no matter how many exist).  None = unbounded.
    max_parallelism: int | None = None
    #: Node-wide coherence penalty per additional busy core.
    coherence: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.serial_frac < 1.0):
            raise CalibrationError(f"serial_frac must be in [0,1), got {self.serial_frac!r}")
        if not self.phases:
            raise CalibrationError("at least one parallel phase is required")
        total_weight = sum(w for w, _ in self.phases)
        if not math.isclose(total_weight, 1.0, rel_tol=1e-6):
            raise CalibrationError(f"phase weights must sum to 1, got {total_weight!r}")
        for w, mu in self.phases:
            if w <= 0 or not (0.0 <= mu <= _MU_CAP):
                raise CalibrationError(f"bad phase ({w!r}, {mu!r})")
        if self.max_parallelism is not None and self.max_parallelism <= 0:
            raise CalibrationError("max_parallelism must be positive")

    def effective_threads(self, p: int) -> int:
        """Threads this shape can actually exploit out of ``p``."""
        if self.max_parallelism is None:
            return p
        return min(p, self.max_parallelism)


def predicted_time(shape: ShapeParams, p: int, *, work_s: float = 1.0,
                   machine: MachineConfig = PAPER_MACHINE) -> float:
    """Wall time of ``work_s`` solo-seconds of this shape on ``p`` threads."""
    mlp = machine.memory.mlp_per_core
    p_eff = shape.effective_threads(p)
    t = work_s * shape.serial_frac * stretch(
        shape.mu_serial, mlp * shape.mu_serial, shape.alpha, machine
    )
    par = work_s * (1.0 - shape.serial_frac)
    for weight, mu in shape.phases:
        t += par * weight / aggregate_rate(
            mu, shape.alpha, p_eff, machine, coherence=shape.coherence
        )
    return t


def predicted_speedup(shape: ShapeParams, p: int,
                      machine: MachineConfig = PAPER_MACHINE) -> float:
    """T(1) / T(p) under the analytic model."""
    return predicted_time(shape, 1, machine=machine) / predicted_time(shape, p, machine=machine)


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------
def brentq(f: Callable[[float], float], a: float, b: float, *,
           xtol: float = 2e-12, rtol: float = 4 * sys.float_info.epsilon,
           maxiter: int = 100) -> float:
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    A statement-for-statement port of ``brentq`` in SciPy's
    ``optimize/Zeros/brentq.c`` (Brent 1973, the zeroin scheme): the same
    operation order, defaults and early returns on an exact zero at
    either end, so IEEE double arithmetic yields the same root bits.
    Raises ``ValueError`` on a NaN function value or a same-sign bracket
    and ``RuntimeError`` when ``maxiter`` iterations do not converge.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by an underflowed zero its
                # inf/NaN fails the step test below, so bisect
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den
                        if den else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"Failed to converge after {maxiter} iterations, value is {xcur:f}"
    )


def _with_mu_scale(shape: ShapeParams, kappa: float) -> ShapeParams:
    """Scale every phase's memory intensity by ``kappa`` (capped)."""
    return ShapeParams(
        serial_frac=shape.serial_frac,
        mu_serial=shape.mu_serial,
        phases=tuple((w, min(_MU_CAP, mu * kappa)) for w, mu in shape.phases),
        alpha=shape.alpha,
        max_parallelism=shape.max_parallelism,
        coherence=shape.coherence,
    )


def fit_coherence_for_speedup(
    shape: ShapeParams,
    speedup16: float,
    *,
    machine: MachineConfig = PAPER_MACHINE,
    threads: int = 16,
) -> ShapeParams:
    """Solve for the coherence penalty that hits a 16-thread speedup.

    Used for the cache-line-storm applications (uncut fibonacci,
    reduction) whose slowdown has no bandwidth knee: any second
    participant already costs, and the speedup drops below 1.  The
    response is monotone decreasing in the penalty.
    """
    def make(c: float) -> ShapeParams:
        return ShapeParams(shape.serial_frac, shape.mu_serial, shape.phases,
                           shape.alpha, shape.max_parallelism, coherence=c)

    def err(c: float) -> float:
        return predicted_speedup(make(c), threads, machine) - speedup16

    lo, hi = 0.0, 50.0
    if err(lo) < 0:
        raise CalibrationError(
            f"speedup target {speedup16} unreachable even without coherence cost"
        )
    if err(hi) > 0:
        raise CalibrationError(f"speedup target {speedup16} needs penalty > {hi}")
    c = brentq(err, lo, hi, xtol=1e-6)
    return make(c)


def fit_mu_scale_for_speedup(
    shape: ShapeParams,
    speedup16: float,
    *,
    machine: MachineConfig = PAPER_MACHINE,
    threads: int = 16,
) -> ShapeParams:
    """Solve for the memory-intensity scale that hits a 16-thread speedup.

    Speedup is monotonically decreasing in kappa, so a bracketed root
    always exists when the target lies between the kappa->0 (ideal) and
    kappa->cap (fully contended) speedups.
    """
    def err(kappa: float) -> float:
        return predicted_speedup(_with_mu_scale(shape, kappa), threads, machine) - speedup16

    lo, hi = 1e-3, _MU_CAP / max(mu for _, mu in shape.phases)
    if err(lo) < 0:
        raise CalibrationError(
            f"speedup target {speedup16} unreachable: even mu~0 gives "
            f"{predicted_speedup(_with_mu_scale(shape, lo), threads, machine):.2f}"
        )
    if err(hi) > 0:
        raise CalibrationError(
            f"speedup target {speedup16} unreachable: full contention gives "
            f"{predicted_speedup(_with_mu_scale(shape, hi), threads, machine):.2f}"
        )
    kappa = brentq(err, lo, hi, xtol=1e-6)
    return _with_mu_scale(shape, kappa)


def fit_mu_scale_for_time_ratio(
    shape: ShapeParams,
    t12_over_t16: float,
    *,
    machine: MachineConfig = PAPER_MACHINE,
) -> ShapeParams:
    """Solve for the intensity scale that hits the T(12)/T(16) ratio.

    This is the fit used for the four throttling applications: the ratio
    of the 12-fixed to 16-fixed rows (Tables IV-VII) is exactly the
    quantity that determines whether throttling can pay off.
    The ratio decreases monotonically in kappa — from 16/12 (ideal
    scaling, 12 threads 33% slower) through 1.0 and below (contention
    collapse, 12 threads faster).
    """
    def ratio(kappa: float) -> float:
        scaled = _with_mu_scale(shape, kappa)
        return (
            predicted_time(scaled, 12, machine=machine)
            / predicted_time(scaled, 16, machine=machine)
        )

    lo, hi = 1e-3, _MU_CAP / max(mu for _, mu in shape.phases)
    r_lo, r_hi = ratio(lo), ratio(hi)
    if not (min(r_lo, r_hi) <= t12_over_t16 <= max(r_lo, r_hi)):
        raise CalibrationError(
            f"T12/T16 target {t12_over_t16:.4f} outside reachable "
            f"[{min(r_lo, r_hi):.4f}, {max(r_lo, r_hi):.4f}]"
        )
    kappa = brentq(lambda k: ratio(k) - t12_over_t16, lo, hi, xtol=1e-6)
    return _with_mu_scale(shape, kappa)


def fit_serial_frac_for_speedup(
    shape: ShapeParams,
    speedup16: float,
    *,
    machine: MachineConfig = PAPER_MACHINE,
    threads: int = 16,
) -> ShapeParams:
    """Solve for the serial fraction that hits a 16-thread speedup.

    Used for compute-bound applications whose sub-ideal scaling comes
    from serial sections and task granularity rather than memory traffic.
    """
    def make(f: float) -> ShapeParams:
        return ShapeParams(f, shape.mu_serial, shape.phases, shape.alpha,
                           max_parallelism=shape.max_parallelism,
                           coherence=shape.coherence)

    def err(f: float) -> float:
        return predicted_speedup(make(f), threads, machine) - speedup16

    lo, hi = 0.0, 0.9
    if err(lo) < 0:
        raise CalibrationError(
            f"speedup target {speedup16} unreachable even with zero serial fraction"
        )
    if err(hi) > 0:
        raise CalibrationError(f"speedup target {speedup16} needs serial_frac > {hi}")
    f = brentq(err, lo, hi, xtol=1e-9)
    return make(f)


def fit_total_work(shape: ShapeParams, t16_target_s: float, *,
                   machine: MachineConfig = PAPER_MACHINE, threads: int = 16) -> float:
    """Solo work (seconds) that makes the 16-thread time hit the target."""
    unit_time = predicted_time(shape, threads, machine=machine)
    if unit_time <= 0:
        raise CalibrationError("degenerate shape: zero predicted time")
    return t16_target_s / unit_time


# ----------------------------------------------------------------------
# power model (linear in power_scale)
# ----------------------------------------------------------------------
def _interval_power_terms(
    n_active: Sequence[int],
    mu: float,
    alpha: float,
    machine: MachineConfig,
    coherence: float = 0.0,
) -> tuple[float, float]:
    """(fixed_watts, scale_watts): interval power = fixed + x * scale."""
    pw = machine.power
    mm = machine.memory
    total_busy = sum(n_active)
    coh = coherence * (total_busy - 1) if total_busy > 1 else 0.0
    fixed = 0.0
    scale = 0.0
    for n in n_active:
        demand = n * mm.mlp_per_core * mu
        knee = mm.knee_refs
        sigma = (1.0 if demand <= knee else (demand / knee) ** alpha) + coh
        total_stretch = (1.0 - mu) + mu * sigma
        mu_wall = (mu * sigma / total_stretch) if total_stretch > 0 else 0.0
        bw_util = min(1.0, demand / knee)
        idle_cores = machine.cores_per_socket - n
        fixed += (
            pw.uncore_w * _WARM_LEAK
            + idle_cores * pw.core_idle_w * _WARM_LEAK
            + pw.bandwidth_w * bw_util
        )
        scale += n * (
            pw.core_active_base_w * _WARM_LEAK
            + pw.core_cpu_w * (1.0 - mu_wall)
            + pw.core_stall_w * mu_wall
        )
    return fixed, scale


def fit_power_scale(
    shape: ShapeParams,
    work_s: float,
    watts_target: float,
    *,
    machine: MachineConfig = PAPER_MACHINE,
    threads: int = 16,
    clamp: tuple[float, float] = (0.25, 3.0),
    power_shapes: Sequence[float] | None = None,
) -> float:
    """Solve the 16-thread average power for the per-app power scale.

    Average power is ``(A + x*B) / T`` with A, B integrated over the
    serial + phase schedule; the solution is exact and then clamped to a
    physically plausible range.

    ``power_shapes`` gives per-phase multipliers on the scale (instruction
    mixes differ between phases — strassen's AVX addition sweeps draw far
    more than its cache-blocked multiplies); the fitted ``x`` is the base,
    phase ``i`` uses ``x * power_shapes[i]``.
    """
    if power_shapes is None:
        power_shapes = [1.0] * len(shape.phases)
    if len(power_shapes) != len(shape.phases):
        raise CalibrationError("power_shapes must match the phase count")
    mlp = machine.memory.mlp_per_core
    a_joules = 0.0
    b_joules = 0.0
    # serial interval: one active core on socket 0
    t_serial = work_s * shape.serial_frac * stretch(
        shape.mu_serial, mlp * shape.mu_serial, shape.alpha, machine
    )
    loads_serial = [1] + [0] * (machine.sockets - 1)
    fixed, scale = _interval_power_terms(loads_serial, shape.mu_serial, shape.alpha, machine)
    a_joules += fixed * t_serial
    b_joules += scale * t_serial
    total_t = t_serial
    # parallel phases
    p_eff = shape.effective_threads(threads)
    loads = socket_loads(p_eff, machine)
    par_work = work_s * (1.0 - shape.serial_frac)
    for (weight, mu), p_shape in zip(shape.phases, power_shapes):
        t_phase = par_work * weight / aggregate_rate(
            mu, shape.alpha, p_eff, machine, coherence=shape.coherence
        )
        fixed, scale = _interval_power_terms(
            loads, mu, shape.alpha, machine, coherence=shape.coherence
        )
        a_joules += fixed * t_phase
        b_joules += scale * p_shape * t_phase
        total_t += t_phase
    if b_joules <= 0:
        raise CalibrationError("no dynamic power term; cannot fit power scale")
    x = (watts_target * total_t - a_joules) / b_joules
    return min(max(x, clamp[0]), clamp[1])
