"""End-to-end determinism: same seed ⇒ identical run, bit for bit.

The whole golden-trace methodology rests on this: a simulation is a pure
function of (configuration, seed).  These tests pin it at full-stack
scope, *with the fault layer active* — fault injection draws from the
runtime's seeded RNG streams, so it must be exactly as reproducible as
the clean path (the fault-sweep experiment compares energy numbers across
profiles and would be meaningless otherwise).
"""

from __future__ import annotations

from repro.experiments.runner import run_measurement
from repro.faults import parse_fault_spec
from repro.perf.golden import TraceObserver, digest_stack


def _run(seed: int) -> dict:
    # The same shape a CLI user gets with:
    #   repro run dijkstra --throttle --faults default --seed <seed>
    faults = parse_fault_spec("default")
    result = run_measurement("dijkstra", throttle=True, faults=faults,
                             seed=seed, observer=TraceObserver())
    return digest_stack(result)


def test_same_seed_same_fault_spec_is_bit_identical() -> None:
    first = _run(seed=3)
    second = _run(seed=3)
    assert first == second  # includes the full-trace SHA-256


def test_different_seed_diverges() -> None:
    """A different seed must actually change the run.

    Guards against the RNG being plumbed but unused (a classic way for
    "deterministic" to silently mean "constant"): with the ``default``
    fault profile active, seed 3 and seed 4 perturb tick timing and
    sensor reads differently, so the event traces must differ.
    """
    first = _run(seed=3)
    other = _run(seed=4)
    assert first["trace_sha256"] != other["trace_sha256"]
    assert first != other


def test_clean_path_is_deterministic_too() -> None:
    """No faults, throttling on: still bit-identical across runs."""
    a = digest_stack(run_measurement("bots-fib", throttle=True,
                                     observer=TraceObserver()))
    b = digest_stack(run_measurement("bots-fib", throttle=True,
                                     observer=TraceObserver()))
    assert a == b
