"""Performance instrumentation for the simulator itself.

The paper's central warning — that measurement overhead distorts the
quantity being measured — applies to this reproduction too: every
experiment sweep re-runs the simulator's event loop millions of times, so
the simulator's own speed bounds how much of the design space we can
explore.  This package is the repo's answer:

* :mod:`repro.perf.scenarios` — the canonical benchmark scenarios (pure
  event-drain microbenchmarks and end-to-end paper-table runs) and the
  full-stack builder the golden digests share;
* :mod:`repro.perf.golden` — golden-trace digests: bit-exact fingerprints
  (energy, time, event counts, MSR values, trace hash) of canonical runs,
  recorded from a known-good build and pinned by the test suite so every
  hot-path optimization is provably behavior-preserving.

Timing and the per-layer split of the paper sweep come from the
repository benchmark, ``python3 perfbench/run.py --workload paper-tables
--trace 1``; the golden suite runs via ``make test-golden``.
"""

from __future__ import annotations

from repro.perf.scenarios import BENCH_SCENARIOS
from repro.perf.golden import GOLDEN_SCENARIOS, compute_digest, compute_all_digests

__all__ = [
    "BENCH_SCENARIOS",
    "GOLDEN_SCENARIOS",
    "compute_digest",
    "compute_all_digests",
]
