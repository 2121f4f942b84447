"""Golden-trace digests: bit-exact fingerprints of canonical runs.

A *digest* is everything observable about one full-stack simulation run,
reduced to a small JSON-stable record:

* ground-truth energy per socket (exact ``float`` values);
* region-measured time / energy / average power (the RAPL path);
* engine event count and final simulation time;
* final MSR-visible state — the wrapped ``MSR_PKG_ENERGY_STATUS`` and
  ``IA32_THERM_STATUS`` registers per socket, and a hash over every
  core's APERF/MPERF counters;
* a SHA-256 over the complete event trace (time, category, detail of
  every fired event, at full float precision).

Digests are recorded once from a known-good build
(``python -m repro.perf.golden --update``) into
``tests/sim/golden_digests.json`` and pinned by
``tests/sim/test_golden_trace.py``.  Because every float is compared
exactly (JSON round-trips ``repr`` floats losslessly) and the trace hash
covers full event ordering, *any* behavioral drift — a reordered event,
one ULP of energy, a different number of daemon ticks — fails the suite.
That is what makes hot-path optimizations safe to ship: they must
reproduce these runs bit for bit.

Every scenario is a plain :func:`~repro.experiments.runner.run_measurement`
call — the path every Table cell takes — with a :class:`TraceObserver`
switching on the event trace, so the pinned path is the production path.

The three canonical scenarios cover the three main engine loads:

* ``fib-bots`` — a BOTS task-recursion run (scheduler-heavy);
* ``lulesh-throttled`` — a LULESH slice under the MAESTRO controller
  (duty-cycle actuation, spin states, throttle wake conditions);
* ``faultsweep-inert`` — the fault sweep's inert profile on the
  throttled dijkstra cell (the fault layer wired up but provably
  inactive — pinning that "inert means bit-identical" stays true).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

from repro.experiments.runner import MeasurementResult, run_measurement
from repro.sim.trace import Trace

#: Default location of the pinned digests (inside the test tree, next to
#: the suite that asserts them).
DEFAULT_DIGEST_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "sim" / "golden_digests.json"
)


class TraceObserver:
    """Run observer that switches on the engine's full event trace.

    Attached by :func:`run_measurement` before any event fires, so the
    trace covers the whole run; it only records fired events, so the run
    itself is unchanged.
    """

    def attach(self, engine, node) -> None:
        engine.trace = Trace(enabled=True, capacity=300_000)

    def detach(self) -> None:
        pass


def _scenario_fib_bots() -> MeasurementResult:
    return run_measurement("bots-fib", observer=TraceObserver())


def _scenario_lulesh_throttled() -> MeasurementResult:
    return run_measurement("lulesh", throttle=True, scale=0.35,
                           observer=TraceObserver())


def _scenario_faultsweep_inert() -> MeasurementResult:
    from repro.faults import PROFILES

    return run_measurement("dijkstra", throttle=True, faults=PROFILES["none"],
                           seed=0, observer=TraceObserver())


GOLDEN_SCENARIOS: dict[str, Callable[[], MeasurementResult]] = {
    "fib-bots": _scenario_fib_bots,
    "lulesh-throttled": _scenario_lulesh_throttled,
    "faultsweep-inert": _scenario_faultsweep_inert,
}


def _trace_sha256(trace) -> str:
    """Hash the full event timeline at full float precision."""
    h = hashlib.sha256()
    for record in trace:
        h.update(f"{record.time!r}|{record.category}|{record.detail}\n".encode())
    return h.hexdigest()


def _counter_sha256(values: list[int]) -> str:
    h = hashlib.sha256()
    h.update(",".join(str(v) for v in values).encode())
    return h.hexdigest()


def digest_stack(result: MeasurementResult) -> dict[str, Any]:
    """Reduce one full-stack run to its comparable digest record."""
    from repro.hw.msr import IA32_THERM_STATUS, MSR_PKG_ENERGY_STATUS

    node = result.daemon.node
    engine = result.daemon.engine
    sockets = node.config.sockets
    pkg_energy_raw = [
        node.msr.read_package(s, MSR_PKG_ENERGY_STATUS, privileged=True)
        for s in range(sockets)
    ]
    therm_raw = [
        node.msr.read_core(
            node.topology.cores_in_socket(s).start, IA32_THERM_STATUS,
            privileged=True,
        )
        for s in range(sockets)
    ]
    cycle_counters = []
    for core in node.cores:
        cycle_counters.append(int(core.mperf_cycles))
        cycle_counters.append(int(core.aperf_cycles))
    return {
        "energy_j_sockets": [node.rapl[s].energy_j for s in range(sockets)],
        "final_temps_degc": [t.temp_degc for t in node.thermal],
        "region_elapsed_s": result.region.elapsed_s,
        "region_energy_j": result.region.energy_j,
        "region_avg_watts": result.region.avg_watts,
        "events_fired": engine.fired,
        "events_pending": engine.pending,
        "final_time_s": engine.now,
        "daemon_ticks": result.daemon.ticks,
        "msr_pkg_energy_status": pkg_energy_raw,
        "msr_therm_status": therm_raw,
        "msr_cycle_counters_sha256": _counter_sha256(cycle_counters),
        "trace_len": len(engine.trace),
        "trace_sha256": _trace_sha256(engine.trace),
    }


def compute_digest(name: str) -> dict[str, Any]:
    """Run one golden scenario and return its digest."""
    try:
        builder = GOLDEN_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown golden scenario {name!r}; one of {', '.join(GOLDEN_SCENARIOS)}"
        ) from None
    return digest_stack(builder())


def compute_all_digests() -> dict[str, dict[str, Any]]:
    """Run every golden scenario; returns ``{name: digest}``."""
    return {name: compute_digest(name) for name in GOLDEN_SCENARIOS}


def load_pinned(path: Path = DEFAULT_DIGEST_PATH) -> dict[str, dict[str, Any]]:
    """Load the pinned digests (empty dict when none are recorded yet)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    """Record or check the pinned digests.

    Recording is an *intentional* act (``--update``): it redefines what
    "behavior-preserving" means for every future optimization, so the
    default mode only checks and reports drift.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.golden",
        description="record/check golden-trace digests",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="(re)record the pinned digests from the current build",
    )
    parser.add_argument(
        "--path", type=Path, default=DEFAULT_DIGEST_PATH,
        help=f"digest file (default: {DEFAULT_DIGEST_PATH})",
    )
    args = parser.parse_args(argv)

    current = compute_all_digests()
    if args.update:
        args.path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(current)} golden digests -> {args.path}")
        return 0

    pinned = load_pinned(args.path)
    if not pinned:
        print(f"no pinned digests at {args.path}; run with --update to record")
        return 1
    failures = 0
    for name, digest in current.items():
        expected = pinned.get(name)
        if expected is None:
            print(f"{name}: NOT PINNED")
            failures += 1
            continue
        if expected == digest:
            print(f"{name}: ok")
            continue
        failures += 1
        drifted = [k for k in digest if digest.get(k) != expected.get(k)]
        print(f"{name}: DRIFT in {', '.join(drifted)}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())
