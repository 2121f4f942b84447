"""Empirical residual corrections to the analytic fits.

The analytic model in :mod:`repro.calibration.fit` treats parallel work
as perfectly divisible; the simulated applications have *real structure*
— barrier tails at the end of sparselu's elimination phases, ramp-up
along strassen's recursion spine, dependency chains up health's village
tree — that adds a few percent to the 16-thread time and trims average
power.  Because simulated time is exactly linear in total work (the
contention model depends on active-core intensity, not work volume),
one multiplicative correction per (application, compiler) makes the
16-thread row land on the paper's value without touching the fitted
shape, so speedup curves and throttling dynamics are unaffected.

This table is *generated*, not hand-tuned: run

    repro-paper recalibrate

to re-measure every entry (it simulates each application once or twice
at 16 threads and rewrites this file's data).  Entries default to
(1.0, 1.0) for combinations that have not been measured.
"""

from __future__ import annotations

#: (app, compiler) -> (work, power-scale, memory-intensity) corrections
RESIDUALS: dict[tuple[str, str], tuple[float, float, float]] = {
    ('bots-alignment-for', 'gcc'): (0.995498, 1.004812, 1.000000),
    ('bots-alignment-for', 'icc'): (0.995502, 1.004772, 1.000000),
    ('bots-alignment-single', 'gcc'): (0.995467, 1.004602, 1.000000),
    ('bots-alignment-single', 'icc'): (0.995478, 1.004775, 1.000000),
    ('bots-fib', 'gcc'): (0.925975, 1.085387, 1.000000),
    ('bots-fib', 'icc'): (0.925974, 1.074517, 1.000000),
    ('bots-health', 'gcc'): (0.944285, 1.073999, 1.000000),
    ('bots-health', 'icc'): (0.944284, 1.073920, 1.000000),
    ('bots-health', 'maestro'): (0.927750, 1.086676, 0.947500),
    ('bots-nqueens', 'gcc'): (0.989843, 1.010563, 1.000000),
    ('bots-nqueens', 'icc'): (0.989843, 1.010376, 1.000000),
    ('bots-sort', 'gcc'): (0.981730, 1.021259, 1.000000),
    ('bots-sort', 'icc'): (0.981728, 1.020793, 1.000000),
    ('bots-sparselu-for', 'icc'): (0.899849, 1.106373, 1.000000),
    ('bots-sparselu-single', 'gcc'): (0.899837, 1.106790, 1.000000),
    ('bots-sparselu-single', 'icc'): (0.899837, 1.106494, 1.000000),
    ('bots-strassen', 'gcc'): (0.908515, 1.131354, 1.000000),
    ('bots-strassen', 'icc'): (0.908515, 1.141490, 1.000000),
    ('bots-strassen', 'maestro'): (0.933938, 1.088407, 0.860000),
    ('dijkstra', 'gcc'): (0.986044, 1.018735, 1.000000),
    ('dijkstra', 'icc'): (0.986044, 1.018217, 1.000000),
    ('dijkstra', 'maestro'): (0.987016, 1.015312, 0.965000),
    ('fibonacci', 'gcc'): (1.002811, 1.084637, 1.000000),
    ('fibonacci', 'icc'): (0.974298, 1.029434, 1.000000),
    ('lulesh', 'gcc'): (0.999993, 0.994411, 1.000000),
    ('lulesh', 'icc'): (0.999977, 0.993523, 1.000000),
    ('lulesh', 'maestro'): (0.999980, 0.987117, 1.000000),
    ('mergesort', 'gcc'): (1.000000, 1.039619, 1.000000),
    ('mergesort', 'icc'): (1.000000, 1.043737, 1.000000),
    ('nqueens', 'gcc'): (0.990203, 1.013348, 1.000000),
    ('nqueens', 'icc'): (0.990203, 1.013519, 1.000000),
    ('reduction', 'gcc'): (0.999999, 1.005165, 1.000000),
    ('reduction', 'icc'): (0.999999, 1.004968, 1.000000),
}


def residual_for(app: str, compiler: str) -> tuple[float, float, float]:
    """(work, power, memory-intensity) corrections; identity if unmeasured.

    Entries may be stored as 2-tuples (work, power) from older
    calibration runs; the memory-intensity correction then defaults to 1.
    """
    entry = RESIDUALS.get((app, compiler), (1.0, 1.0, 1.0))
    if len(entry) == 2:
        return (entry[0], entry[1], 1.0)
    return entry
