"""Pluggable metering backends behind the RCRdaemon's sampling loop.

The daemon's original energy path — one wrap-aware
:class:`~repro.measure.energy.EnergyReader` per socket polled every tick —
is one *meter* among several a real measurement stack could use.  This
module extracts that contract into :class:`MeterBackend` and provides two
implementations:

* :class:`RaplBackend` — the existing hardware-counter path, verbatim.
  It delegates to :class:`~repro.measure.energy.MultiSocketEnergyReader`
  with no arithmetic of its own, so a daemon built on it performs the
  exact same MSR reads in the exact same order as before the refactor;
  the golden-trace suite pins this bit-identity.

* :class:`CounterModelBackend` — a software wattmeter in the style of
  pTop/PowerAPI ("Dissecting the software-based measurement of CPU energy
  consumption", PAPERS.md): it never touches the energy register, instead
  reading each core's ``IA32_MPERF``/``IA32_APERF`` cycle counters and
  estimating socket power from a per-state model (idle / clocked / issue
  utilisation).  The model is *deliberately* simpler than the simulator's
  ground-truth :class:`~repro.hw.power.PowerModel`: it omits memory-stall
  power, bandwidth draw and leakage-vs-temperature, so its error is
  workload-dependent — near-exact on idle and compute-bound phases,
  biased on memory-bound ones — which is exactly the divergence the
  ``metersweep`` experiment quantifies.  Each backend declares an error
  envelope (:class:`~repro.config.MeterConfig.envelope_frac`) that the
  validate layer holds it to.

Fault interaction is asymmetric by construction: the injector's
:class:`~repro.faults.injector.FaultyMSRFile` perturbs only energy-
register and thermal reads, so ``flaky-msr`` profiles degrade the RAPL
backend while the counter model sails through (its APERF/MPERF reads are
clean) — while cadence faults (stall, jitter) hit both by shifting the
integration windows.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import METER_BACKENDS, PowerConfig
from repro.errors import MeasurementError
from repro.hw.msr import IA32_APERF, IA32_MPERF, MSRFile
from repro.hw.node import Node
from repro.measure.energy import (
    EnergySample,
    MultiSocketEnergyReader,
    SampleQuality,
)
from repro.units import joules_to_rapl_ticks, rapl_ticks_to_joules

_new_tuple = tuple.__new__

__all__ = [
    "MeterBackend",
    "RaplBackend",
    "CounterModelBackend",
    "estimate_socket_power_w",
    "make_backend",
]


class MeterBackend:
    """Protocol for one node-wide energy meter.

    A backend owns whatever per-socket state its measurement needs and
    answers three questions the daemon asks every tick: *how much energy
    has socket s consumed so far* (:meth:`poll_sample`), *how many times
    has its counter wrapped* (:meth:`wraps`) and *how trustworthy have
    the samples been* (:meth:`quality_counts`).  All MSR traffic must go
    through the ``MSRFile`` the backend was constructed with — the daemon
    hands in its (possibly fault-wrapped) handle, so injected sensor
    faults reach exactly the reads a real tool would be exposed to.
    """

    #: Stable identifier, one of :data:`repro.config.METER_BACKENDS`.
    name: str = "?"

    def poll_sample(self, socket: int, window_s: "float | None") -> EnergySample:
        """Sample ``socket``'s cumulative energy.

        ``window_s`` is the elapsed time since the previous poll when the
        caller knows it (used for rate estimates / window integration), or
        ``None`` for an anchoring read whose delta is not meaningful.
        """
        raise NotImplementedError

    def wraps(self, socket: int) -> int:
        """Counter wraps observed on ``socket`` so far."""
        raise NotImplementedError

    def quality_counts(self) -> dict[SampleQuality, int]:
        """Aggregate sample-quality histogram across all sockets."""
        raise NotImplementedError


class RaplBackend(MeterBackend):
    """The hardware path: wrap-aware RAPL counter accumulation.

    Pure delegation to :class:`MultiSocketEnergyReader` — same reads,
    same order, same arithmetic as the pre-refactor daemon, which is what
    keeps default runs bit-identical to the pinned golden digests.
    """

    name = "rapl"

    def __init__(self, msr: MSRFile, sockets: int, *, retry_limit: int = 3) -> None:
        self._energy = MultiSocketEnergyReader(msr, sockets, retry_limit=retry_limit)

    def poll_sample(self, socket: int, window_s: "float | None") -> EnergySample:
        return self._energy.readers[socket].poll_sample(window_s)

    def wraps(self, socket: int) -> int:
        return self._energy.readers[socket].wraps

    def quality_counts(self) -> dict[SampleQuality, int]:
        totals: dict[SampleQuality, int] = {q: 0 for q in SampleQuality}
        for reader in self._energy.readers:
            for quality, count in reader.quality_counts.items():
                totals[quality] += count
        return totals


def estimate_socket_power_w(
    mperf_deltas: Sequence[float],
    aperf_deltas: Sequence[float],
    window_s: float,
    frequency_hz: float,
    power: PowerConfig,
) -> float:
    """Estimate one socket's average power over a window from its counters.

    Per core, ``MPERF`` ticks at the nominal rate whenever the core is in
    C0, so ``c0 = dmperf / (f * window)`` is the clocked fraction of the
    window; ``APERF`` additionally scales with the duty cycle, so
    ``issue = daperf / (f * window)`` is the effective issue utilisation
    (clock modulation shows up here, which is how the model sees
    throttling).  The per-state model is then

        idle_w * (1 - c0)  +  active_base_w * c0  +  cpu_w * issue

    summed over cores, plus constant uncore power.  Stall power, bandwidth
    draw and temperature-dependent leakage are intentionally absent — a
    software wattmeter built on utilisation counters cannot see them, and
    that blindness is the attribution error under study.

    Pure function of its arguments (no clamping state, no I/O) so the
    hypothesis suite can probe it directly: the result is non-negative and
    monotone non-decreasing in every counter delta.
    """
    if window_s <= 0:
        return 0.0
    cycles = frequency_hz * window_s
    total = power.uncore_w
    for dmperf, daperf in zip(mperf_deltas, aperf_deltas):
        c0 = min(1.0, max(0.0, dmperf / cycles))
        issue = min(c0, max(0.0, daperf / cycles))
        total += (
            power.core_idle_w * (1.0 - c0)
            + power.core_active_base_w * c0
            + power.core_cpu_w * issue
        )
    return total


class CounterModelBackend(MeterBackend):
    """Software wattmeter: APERF/MPERF utilisation × per-state power model.

    Every poll reads both cycle counters for every core of the socket
    (supervisor-level reads through the daemon's MSR handle), converts the
    deltas to utilisations over the window, prices them with
    :func:`estimate_socket_power_w`, and accumulates the window's energy
    *quantised to RAPL ticks* so the reported resolution matches what a
    RAPL-calibrated consumer expects.  Samples are always ``OK``: the
    model cannot fail a read the way the energy register does (the fault
    injector leaves APERF/MPERF alone), it can only be *wrong*, which is
    what the validate layer's error envelope measures.
    """

    name = "counter-model"

    def __init__(
        self,
        msr: MSRFile,
        socket_cores: Sequence[Sequence[int]],
        frequency_hz: float,
        power: PowerConfig,
    ) -> None:
        if not socket_cores:
            raise MeasurementError("counter-model backend needs at least one socket")
        self._msr = msr
        self._socket_cores = [list(cores) for cores in socket_cores]
        self._frequency_hz = frequency_hz
        self._power = power
        self._total_ticks = [0] * len(self._socket_cores)
        self.quality_histogram: dict[SampleQuality, int] = {
            q: 0 for q in SampleQuality
        }
        # Baseline counter snapshot, so the first windowed poll sees only
        # cycles accumulated after the backend (i.e. the daemon) started.
        self._prev_cycles = [
            [self._read_core_cycles(core) for core in cores]
            for cores in self._socket_cores
        ]

    def _read_core_cycles(self, core: int) -> tuple[int, int]:
        return (
            self._msr.read_core(core, IA32_MPERF, privileged=True),
            self._msr.read_core(core, IA32_APERF, privileged=True),
        )

    def poll_sample(self, socket: int, window_s: "float | None") -> EnergySample:
        cores = self._socket_cores[socket]
        now_cycles = [self._read_core_cycles(core) for core in cores]
        prev_cycles = self._prev_cycles[socket]
        self._prev_cycles[socket] = now_cycles
        delta_ticks = 0
        if window_s is not None and window_s > 0:
            mperf_deltas = [n[0] - p[0] for n, p in zip(now_cycles, prev_cycles)]
            aperf_deltas = [n[1] - p[1] for n, p in zip(now_cycles, prev_cycles)]
            power_w = estimate_socket_power_w(
                mperf_deltas, aperf_deltas, window_s, self._frequency_hz, self._power
            )
            delta_ticks = joules_to_rapl_ticks(power_w * window_s)
            self._total_ticks[socket] += delta_ticks
        self.quality_histogram[SampleQuality.OK] += 1
        return _new_tuple(EnergySample, (
            rapl_ticks_to_joules(self._total_ticks[socket]),
            delta_ticks,
            SampleQuality.OK,
            0,
            0,
        ))

    def wraps(self, socket: int) -> int:
        return 0

    def quality_counts(self) -> dict[SampleQuality, int]:
        return dict(self.quality_histogram)


def make_backend(name: str, msr: MSRFile, node: Node) -> MeterBackend:
    """Build the named backend against ``node`` reading through ``msr``.

    ``msr`` is passed separately from ``node`` because the daemon may hand
    in a fault-wrapped view of ``node.msr``; the backend must use it for
    every read so injected sensor faults are visible to the meter.
    """
    if name == "rapl":
        return RaplBackend(msr, node.config.sockets)
    if name == "counter-model":
        return CounterModelBackend(
            msr,
            [
                list(node.topology.cores_in_socket(s))
                for s in range(node.config.sockets)
            ],
            node.config.frequency_hz,
            node.config.power,
        )
    raise MeasurementError(
        f"unknown meter backend {name!r}; one of {', '.join(METER_BACKENDS)}"
    )
