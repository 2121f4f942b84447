"""repro: a full-system reproduction of *Power Measurement and Concurrency
Throttling for Energy Reduction in OpenMP Programs* (Porterfield, Olivier,
Bhalachandra, Prins — 2013).

The paper measures the power/energy behaviour of OpenMP programs on a
two-socket Intel Sandybridge node via the RAPL energy counters, then adds
MAESTRO: an adaptive Qthreads scheduler that throttles concurrency with
per-core duty-cycle modulation when both socket power and memory
concurrency run high, saving ~3% energy on contention-limited programs.

This package rebuilds that entire stack on a simulated node:

* :mod:`repro.sim` — deterministic discrete-event engine;
* :mod:`repro.hw` — the node model: cores with duty-cycle control, a
  memory-contention model, power/thermal models, RAPL counters and MSRs;
* :mod:`repro.qthreads` — the lightweight tasking runtime (shepherds,
  work stealing, FEBs) with the MAESTRO throttling hooks;
* :mod:`repro.openmp` — OpenMP constructs lowered onto the runtime;
* :mod:`repro.rcr` — the RCRdaemon measurement stack and region API;
* :mod:`repro.throttle` — the throttling policy, controller and actuators;
* :mod:`repro.kernels` / :mod:`repro.apps` — the benchmark suite as real
  algorithms and calibrated task-graph programs;
* :mod:`repro.experiments` — harnesses that regenerate every table and
  figure in the paper's evaluation.

Quickstart::

    from repro.experiments import run_measurement

    result = run_measurement("lulesh", compiler="gcc", optlevel="O2")
    print(result.region)          # time / Joules / Watts / temperatures
"""

from repro.config import (
    MachineConfig,
    MemoryConfig,
    MeterConfig,
    PAPER_MACHINE,
    PowerConfig,
    RuntimeConfig,
    ThermalConfig,
    ThrottleConfig,
)

__version__ = "1.2.0"

__all__ = [
    "MachineConfig",
    "MemoryConfig",
    "MeterConfig",
    "PAPER_MACHINE",
    "PowerConfig",
    "RuntimeConfig",
    "ThermalConfig",
    "ThrottleConfig",
    "__version__",
]
