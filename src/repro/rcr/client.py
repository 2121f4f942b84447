"""The RCR client measurement API: delineated code regions.

The paper instruments every test program "to include the calls either
explicitly in the source or implicitly through the Qthreads runtime":
a start call and an end call delineate a region; at the end call the
elapsed time, the energy used (Joules), the average power (Watts), and
the most recent temperature of each chip are reported (Section II-B).

Because the client reads the daemon's blackboard rather than the MSRs
directly, a region shorter than one daemon period (0.1 s) cannot be
measured meaningfully — the paper states the same restriction ("the code
run time must be at least 0.1 second").  Such reports carry
``valid=False`` instead of raising, so harnesses can flag them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MeasurementError
from repro.rcr import meters
from repro.rcr.blackboard import Blackboard
from repro.sim.engine import Engine


@dataclass(frozen=True)
class RegionReport:
    """Measurement of one delineated code region."""

    name: str
    start_s: float
    end_s: float
    energy_j_sockets: tuple[float, ...]
    avg_watts: float
    temps_degc: tuple[float, ...]
    #: False when the region was too short for the daemon cadence.
    valid: bool = True

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def energy_j(self) -> float:
        return sum(self.energy_j_sockets)

    def __str__(self) -> str:
        flag = "" if self.valid else "  [INVALID: region shorter than daemon period]"
        temps = ", ".join(f"{t:.1f}C" for t in self.temps_degc)
        return (
            f"region {self.name!r}: {self.elapsed_s:.3f} s  "
            f"{self.energy_j:.1f} J  {self.avg_watts:.1f} W  [{temps}]{flag}"
        )


@dataclass
class _OpenRegion:
    name: str
    start_s: float
    start_energy_j: list[float] = field(default_factory=list)


class RegionClient:
    """start/end measurement API over the RCR blackboard."""

    def __init__(
        self,
        engine: Engine,
        blackboard: Blackboard,
        sockets: int,
        *,
        daemon=None,
    ) -> None:
        if sockets <= 0:
            raise MeasurementError(f"sockets must be positive, got {sockets!r}")
        self.engine = engine
        self.blackboard = blackboard
        self.sockets = sockets
        #: Optional RCRDaemon handle; when present the client forces a
        #: fresh sample at region boundaries so reports cover exactly
        #: their interval (the real end call reads counters synchronously).
        self.daemon = daemon
        self._open: dict[str, _OpenRegion] = {}

    def _freshen(self) -> None:
        if self.daemon is not None:
            self.daemon.sample_now()

    def _cumulative_energy(self) -> list[float]:
        return [
            self.blackboard.read_value(meters.socket_energy_j(s), default=0.0)
            for s in range(self.sockets)
        ]

    def start(self, name: str) -> None:
        """Open a measurement region."""
        if name in self._open:
            raise MeasurementError(f"region {name!r} already open")
        self._freshen()
        self._open[name] = _OpenRegion(
            name=name,
            start_s=self.engine.now,
            start_energy_j=self._cumulative_energy(),
        )

    def end(self, name: str) -> RegionReport:
        """Close a region and report time / Joules / Watts / temperatures."""
        region = self._open.pop(name, None)
        if region is None:
            raise MeasurementError(f"region {name!r} was never started")
        self._freshen()
        end_s = self.engine.now
        elapsed = end_s - region.start_s
        period = self.blackboard.read_value(meters.DAEMON_PERIOD_S, default=0.1)
        energy = tuple(
            now_j - then_j
            for now_j, then_j in zip(self._cumulative_energy(), region.start_energy_j)
        )
        temps = tuple(
            self.blackboard.read_value(meters.socket_temp_degc(s), default=0.0)
            for s in range(self.sockets)
        )
        total = sum(energy)
        return RegionReport(
            name=name,
            start_s=region.start_s,
            end_s=end_s,
            energy_j_sockets=energy,
            avg_watts=(total / elapsed) if elapsed > 0 else 0.0,
            temps_degc=temps,
            valid=elapsed >= period,
        )
