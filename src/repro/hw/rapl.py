"""Running Average Power Limit (RAPL) energy accounting.

Each socket owns a :class:`RaplDomain` that integrates the socket's
simulated power draw into an energy accumulator.  Two views exist:

* :attr:`RaplDomain.energy_j` — exact accumulated Joules, the simulator's
  ground truth, used by tests to validate measurement code;
* :meth:`RaplDomain.read_status` — what software sees: the accumulated
  energy quantised into 15.3 microJoule ticks and truncated to 32 bits,
  exactly the ``MSR_PKG_ENERGY_STATUS`` semantics the paper describes
  (Section II-A).  The counter wraps in a few minutes at full load, so
  clients must poll often enough and track wraps; that client logic lives
  in :mod:`repro.measure.energy`.
"""

from __future__ import annotations

from repro.units import (
    RAPL_COUNTER_MODULUS,
    RAPL_ENERGY_UNIT_J,
    joules_to_rapl_ticks,
    wrap_rapl_counter,
)


def expected_status(energy_j: float) -> int:
    """Register value implied by an exact energy, via the units helpers.

    A deliberate second derivation of :meth:`RaplDomain.read_status` (that
    method inlines the arithmetic; this one goes through
    :mod:`repro.units`) so the invariant checker can cross-check the two
    paths against each other.
    """
    return wrap_rapl_counter(joules_to_rapl_ticks(energy_j))


class RaplDomain:
    """Per-socket energy accumulator with an MSR-visible wrapped counter.

    :attr:`energy_j` is the ground-truth accumulated energy in Joules
    (never wraps).  The node's sync step adds ``power * dt`` to it and
    refuses a negative or NaN increment before it reaches the total.
    """

    __slots__ = ("socket", "energy_j")

    def __init__(self, socket: int) -> None:
        self.socket = socket
        self.energy_j = 0.0

    def read_status(self) -> int:
        """Raw 32-bit MSR_PKG_ENERGY_STATUS value (15.3 uJ ticks, wrapped)."""
        ticks = int(self.energy_j / RAPL_ENERGY_UNIT_J)
        return ticks % RAPL_COUNTER_MODULUS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RaplDomain(socket={self.socket}, energy_j={self.energy_j:.3f})"
