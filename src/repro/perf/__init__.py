"""Performance guards for the simulator itself.

Every experiment sweep re-runs the simulator's event loop millions of
times, so hot-path optimization is routine here — and the paper's own
warning, that measurement must not distort what it measures, applies to
it.  :mod:`repro.perf.golden` is the guard: bit-exact digests (energy,
time, event counts, MSR values, trace hash) of canonical
:func:`~repro.experiments.runner.run_measurement` runs, recorded from a
known-good build and pinned by the test suite, so every optimization is
provably behavior-preserving.  The golden suite runs via
``make test-golden``.

Timing and the per-layer split of the paper sweep come from the
repository benchmark, ``python3 perfbench/run.py --workload paper-tables
--trace 1``.  The invariant checker's own overhead is not currently
benchmarked: ``perfbench`` times the unchecked path only.
"""
