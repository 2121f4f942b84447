"""Golden-trace regression suite: optimized code must be bit-identical.

The digests in ``golden_digests.json`` were recorded from the seed-state
(pre-optimization) simulator with ``python -m repro.perf.golden --update``.
Every hot-path change since must reproduce them exactly: per-socket energy
to the last ULP, event counts, the final wrapped MSR registers, a hash of
every core's APERF/MPERF counters, and a SHA-256 over the full event
trace.  A failure here means an "optimization" changed behavior.

These runs take a few hundred milliseconds each, so they carry the
``golden`` marker (``make test-golden`` / ``pytest -m golden``) — but they
are NOT excluded from the default run: bit-identity is this repo's
definition of correct.
"""

from __future__ import annotations

import pytest

from repro.perf.golden import (
    DEFAULT_DIGEST_PATH,
    GOLDEN_SCENARIOS,
    compute_digest,
    load_pinned,
)

pytestmark = pytest.mark.golden


@pytest.fixture(scope="module")
def pinned() -> dict:
    digests = load_pinned()
    assert digests, (
        f"no pinned digests at {DEFAULT_DIGEST_PATH}; "
        "record them with: python -m repro.perf.golden --update"
    )
    return digests


def test_every_scenario_is_pinned(pinned: dict) -> None:
    assert set(pinned) == set(GOLDEN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_golden_digest_bit_identical(name: str, pinned: dict) -> None:
    digest = compute_digest(name)
    expected = pinned[name]
    # Compare key by key so a drift names exactly what moved (one ULP of
    # energy reads very differently from a reordered trace).
    drifted = {
        key: (expected.get(key), digest.get(key))
        for key in set(digest) | set(expected)
        if digest.get(key) != expected.get(key)
    }
    assert not drifted, f"golden drift in {name}: {drifted}"


def test_inert_meter_config_reproduces_pinned_digest(pinned: dict) -> None:
    """An explicit zero-overhead RAPL MeterConfig is provably inert.

    The ``EnergyReader`` -> ``MeterBackend`` refactor must not change a
    single MSR read on the default path: running a golden scenario with
    ``MeterConfig()`` spelled out (rather than ``meter=None``) has to
    reproduce the pinned seed digest bit-for-bit — trace hash, raw
    registers, energies, everything.
    """
    from repro.config import MeterConfig
    from repro.experiments.runner import run_measurement
    from repro.perf.golden import TraceObserver, digest_stack

    meter = MeterConfig()
    assert meter.inert
    result = run_measurement("bots-fib", meter=meter, observer=TraceObserver())
    digest = digest_stack(result)
    expected = pinned["fib-bots"]
    drifted = {
        key: (expected.get(key), digest.get(key))
        for key in set(digest) | set(expected)
        if digest.get(key) != expected.get(key)
    }
    assert not drifted, f"inert MeterConfig drifted from seed digest: {drifted}"


def test_counter_model_meter_changes_no_physics(pinned: dict) -> None:
    """The counter-model backend observes without perturbing.

    Its extra APERF/MPERF reads are read-only, so ground truth — energy,
    elapsed time, event timeline — must stay bit-identical to the pinned
    run; only the *measured* region energy may differ (that difference is
    the attribution error under study).
    """
    from repro.config import MeterConfig
    from repro.experiments.runner import run_measurement
    from repro.perf.golden import TraceObserver, digest_stack

    result = run_measurement(
        "bots-fib", meter=MeterConfig(backend="counter-model"),
        observer=TraceObserver(),
    )
    digest = digest_stack(result)
    expected = pinned["fib-bots"]
    # Everything grounded in simulator truth must match the seed run.
    truth_keys = [
        key for key in expected
        if not key.startswith("region_")  # measured-by-the-meter values
    ]
    drifted = {
        key: (expected.get(key), digest.get(key))
        for key in truth_keys
        if digest.get(key) != expected.get(key)
    }
    assert not drifted, f"counter-model perturbed ground truth: {drifted}"


def test_digest_is_reproducible_within_build() -> None:
    """Two runs of the same scenario in one process agree exactly.

    This guards the guard: if the simulator were nondeterministic, the
    pinned comparison above would be meaningless noise.
    """
    a = compute_digest("faultsweep-inert")
    b = compute_digest("faultsweep-inert")
    assert a == b
