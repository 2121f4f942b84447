"""The validation scenario corpus.

A fixed, deterministic set of :class:`~repro.harness.spec.RunSpec` that
exercises every subsystem the sanitizer watches: plain runs across apps,
compilers and thread counts; throttled runs (duty-cycle legality, decision
ledgers); a cold-start run (thermal trajectory from ambient); and one
throttled app swept across **every named fault profile**, where the
measurement-path violations the faults provoke must be classified
*expected* by the taxonomy while the physics stays clean.

``repro validate`` sweeps this corpus; the ``--quick`` subset covers one
representative of each class in a few runs for smoke use.
"""

from __future__ import annotations

from repro.config import MeterConfig
from repro.faults.profiles import PROFILES
from repro.harness.spec import RunSpec

#: Fault-free runs covering the model surface.
BASE_SPECS: tuple[RunSpec, ...] = (
    RunSpec("mergesort", "gcc", "O2", threads=16, label="mergesort gcc/O2 t16"),
    RunSpec("nqueens", "icc", "O2", threads=16, label="nqueens icc/O2 t16"),
    RunSpec("mergesort", "gcc", "O3", threads=4, label="mergesort gcc/O3 t4"),
    RunSpec("bots-fib", "gcc", "O2", threads=8, label="bots-fib gcc/O2 t8"),
    RunSpec(
        "dijkstra", "gcc", "O2", threads=16, throttle=True,
        label="dijkstra throttled",
    ),
    RunSpec(
        "lulesh", "gcc", "O2", threads=16, throttle=True, scale=0.35,
        label="lulesh throttled (0.35x)",
    ),
    RunSpec(
        "nqueens", "gcc", "O2", threads=16, warm=False,
        label="nqueens cold start",
    ),
    # Coherence penalty > 0: the rate branch whose stretch depends on the
    # node-wide busy count, priced in the node's fused rate-and-power loop.
    RunSpec("reduction", "gcc", "O2", threads=16, label="reduction gcc/O2 t16"),
)

#: Metering-layer runs: the counter-model backend must stay inside its
#: declared error envelope; a RAPL run charging per-read observer cost
#: must account for it exactly; and the counter-model under a flaky-MSR
#: profile must audit *completely clean* — the corrupted register is one
#: it never reads, so the taxonomy refuses to excuse anything
#: (see :func:`repro.faults.expectations.expected_categories`).
METER_SPECS: tuple[RunSpec, ...] = (
    RunSpec(
        "mergesort", "gcc", "O2", threads=16,
        meter=MeterConfig(backend="counter-model"),
        label="mergesort counter-model",
    ),
    RunSpec(
        "lulesh", "gcc", "O2", threads=12, scale=0.35,
        meter=MeterConfig(read_cost_s=0.002),
        label="lulesh rapl +read-cost",
    ),
    RunSpec(
        "dijkstra", "gcc", "O2", threads=16, throttle=True,
        meter=MeterConfig(backend="counter-model"),
        faults=PROFILES["flaky-msr"], seed=1,
        label="dijkstra counter-model faults=flaky-msr",
    ),
)

#: The app every fault profile is applied to: throttled, so the faulted
#: meters feed a live control loop.
_FAULT_APP = "dijkstra"

#: Quick subset: one plain, one throttled, one cold, one coherence-bound,
#: two fault classes.
_QUICK_BASE = (BASE_SPECS[0], BASE_SPECS[4], BASE_SPECS[6], BASE_SPECS[7])
_QUICK_PROFILES = ("flaky-msr", "stall")


def fault_specs(profiles: tuple[str, ...] | None = None) -> list[RunSpec]:
    """Throttled runs of the fault app under the named profiles."""
    names = list(profiles) if profiles is not None else list(PROFILES)
    return [
        RunSpec(
            _FAULT_APP, "gcc", "O2", threads=16, throttle=True,
            faults=PROFILES[name], seed=1,
            label=f"{_FAULT_APP} faults={name}",
        )
        for name in names
    ]


def corpus(*, quick: bool = False) -> list[RunSpec]:
    """The validation corpus (or its quick subset)."""
    if quick:
        return (
            list(_QUICK_BASE)
            + fault_specs(_QUICK_PROFILES)
            + [METER_SPECS[0], METER_SPECS[1]]
        )
    return list(BASE_SPECS) + fault_specs() + list(METER_SPECS)


def differential_specs() -> list[RunSpec]:
    """Fault-free slice used by the differential replay harness."""
    return [BASE_SPECS[0], BASE_SPECS[3], BASE_SPECS[4]]
