"""Regenerate the empirical residual corrections.

For every (application, compiler) pair the paper reports, simulate the
16-thread run, compare against the paper's (time, Watts) row, and solve
the multiplicative corrections:

* ``work_correction = paper_time / simulated_time`` — exact, because
  simulated time is linear in total work;
* ``power_correction`` — one secant step on the (affine) power response.

The result is written back into ``src/repro/calibration/residuals.py``.
Run as::

    repro-paper recalibrate
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional

from repro.calibration import residuals
from repro.calibration.paper_data import TABLE2_GCC, TABLE3_ICC, THROTTLE_TABLES
from repro.calibration.profiles import get_profile
from repro.harness import RunSpec, execute_spec
from repro.harness import telemetry as tel

#: Reference optimization level used for calibration (corrections are
#: shared across levels: the task structure does not change with -O).
_CAL_LEVEL = {"gcc": "O2", "icc": "O2", "maestro": "O3"}


def _combos() -> list[tuple[str, str]]:
    combos = [(app, "gcc") for app in TABLE2_GCC]
    combos += [(app, "icc") for app in TABLE3_ICC]
    combos += [(app, "maestro") for app in THROTTLE_TABLES]
    return combos


def _simulate(app: str, compiler: str, threads: int = 16) -> tuple[float, float]:
    # Straight through the harness's one execution path — but never its
    # cache or process pool: each iteration here depends on the residual
    # table mutated by the previous one.
    level = _CAL_LEVEL[compiler]
    record = execute_spec(RunSpec(app, compiler, level, threads=threads))
    return record.run.elapsed_s, record.run.avg_power_w


def _set(app: str, compiler: str, work: float, power: float, mu: float) -> None:
    residuals.RESIDUALS[(app, compiler)] = (work, power, mu)
    get_profile.cache_clear()


def _fit_mu_corr(app: str, bus: tel.TelemetryBus) -> float:
    """Fit the intensity correction so the *simulated* 12-vs-16-thread
    time ratio matches the paper's (maestro profiles only).

    The analytic ratio fit assumes perfectly divisible work; the real
    task graphs quantise it, so the simulated ratio lands a few percent
    off.  One secant loop on a multiplicative intensity correction
    closes the gap (the ratio is monotone in intensity).
    """
    tables = THROTTLE_TABLES[app]
    target = tables["fixed12"].time_s / tables["fixed16"].time_s

    def ratio_at(mu: float) -> float:
        _set(app, "maestro", 1.0, 1.0, mu)
        t16, _ = _simulate(app, "maestro", 16)
        t12, _ = _simulate(app, "maestro", 12)
        return t12 / t16

    r = ratio_at(1.0)
    if abs(r - target) <= 0.004:
        return 1.0
    # The response is roughly decreasing in intensity but can be jumpy
    # where socket demand crosses the knee, so a coarse scan followed by
    # a refinement scan is more reliable than bisection.
    best_mu, best_err = 1.0, abs(r - target)
    lo, hi = (1.0, 1.16) if r > target else (0.86, 1.0)
    for _ in range(2):
        span = hi - lo
        for i in range(9):
            mu = lo + span * i / 8.0
            err = abs(ratio_at(mu) - target)
            if err < best_err:
                best_mu, best_err = mu, err
        lo = max(lo, best_mu - span / 8.0)
        hi = min(hi, best_mu + span / 8.0)
        if best_err <= 0.003:
            break
    if best_err > 0.01:
        bus.emit(tel.Note(
            f"  [mu fit for {app}: residual ratio error {best_err:.4f}]"))
    return best_mu


def compute_residuals(
    verbose: bool = True,
    combos: list[tuple[str, str]] | None = None,
    *,
    bus: Optional[tel.TelemetryBus] = None,
) -> dict[tuple[str, str], tuple[float, float, float]]:
    """Measure corrections for every reported (app, compiler) pair.

    Progress is narrated as :class:`~repro.harness.telemetry.Note` events
    on ``bus``; ``verbose=True`` without an explicit bus attaches the
    stderr progress renderer (the historical printing behaviour).
    """
    if bus is None:
        bus = tel.stderr_bus() if verbose else tel.TelemetryBus()
    corrections: dict[tuple[str, str], tuple[float, float, float]] = {}
    for app, compiler in (combos if combos is not None else _combos()):
        level = _CAL_LEVEL[compiler]
        mu_corr = 1.0
        if compiler == "maestro":
            mu_corr = _fit_mu_corr(app, bus)
        _set(app, compiler, 1.0, 1.0, mu_corr)
        target = get_profile(app, compiler, level).target

        t0, p0 = _simulate(app, compiler)
        work_corr = target.time_s / t0

        _set(app, compiler, work_corr, 1.0, mu_corr)
        t1, p1 = _simulate(app, compiler)

        power_corr = 1.0
        if p1 > 0 and abs(p1 - target.watts) / target.watts > 0.002:
            # First guess: proportional; then one secant refinement.
            guess = target.watts / p1
            _set(app, compiler, work_corr, guess, mu_corr)
            _, p2 = _simulate(app, compiler)
            if abs(p2 - p1) > 1e-9:
                power_corr = 1.0 + (guess - 1.0) * (target.watts - p1) / (p2 - p1)
            else:
                power_corr = guess
        corrections[(app, compiler)] = (work_corr, power_corr, mu_corr)
        bus.emit(tel.Note(
            f"{app:24s} {compiler:8s} work x{work_corr:.4f}  power x{power_corr:.4f}"
            f"  mu x{mu_corr:.4f}"
            f"  (sim {t0:7.2f}s/{p0:6.1f}W vs paper {target.time_s:6.1f}s/{target.watts:5.1f}W)"
        ))
        _set(app, compiler, *corrections[(app, compiler)])
    return corrections


def write_residuals_module(
    corrections: dict[tuple[str, str], tuple[float, float, float]],
    path: Path | None = None,
) -> Path:
    """Rewrite residuals.py's data table in place."""
    if path is None:
        path = Path(residuals.__file__)
    source = path.read_text()
    marker = "RESIDUALS: dict[tuple[str, str], tuple[float, float, float]] = "
    head, _, tail = source.partition(marker)
    if not head:
        raise RuntimeError(f"could not find the residuals table in {path}")
    # Tail begins with the old literal; drop through its closing brace.
    brace_end = tail.index("}") + 1 if tail.lstrip().startswith("{") else tail.index("{}") + 2
    rest = tail[brace_end:]
    buf = io.StringIO()
    buf.write("{\n")
    for (app, compiler), (w, p, m) in sorted(corrections.items()):
        buf.write(f"    ({app!r}, {compiler!r}): ({w:.6f}, {p:.6f}, {m:.6f}),\n")
    buf.write("}")
    path.write_text(head + marker + buf.getvalue() + rest)
    return path
