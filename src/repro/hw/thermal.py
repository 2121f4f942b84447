"""First-order RC thermal model, one instance per socket.

The die temperature relaxes exponentially toward the equilibrium implied by
the current power draw::

    T_eq = T_amb + P * R
    T(t + dt) = T_eq + (T(t) - T_eq) * exp(-dt / (R * C))

Between simulator synchronisation points the power is piecewise constant,
so this closed-form step is *exact* — no integration error accumulates no
matter how long the interval.

The model exists to reproduce the paper's cold-system effect (footnote 2:
on an initially cold system the first run always used less energy and drew
less power, e.g. NAS BT.C: 3.2% less energy) and to feed the
``IA32_THERM_STATUS`` digital readout that the RCRdaemon reports.
"""

from __future__ import annotations

import math

from repro.config import ThermalConfig


def rc_step(config: ThermalConfig, temp_degc: float, power_w: float, dt: float) -> float:
    """Pure closed-form RC step over ``dt`` seconds at constant power.

    The node's sync step advances every socket with this arithmetic
    inlined (one ``exp`` per sync, the time constant read once); the
    invariant checker (:mod:`repro.validate`) replays each socket's
    trajectory through this function as the independent reference and
    compares bit for bit.  ``dt`` must be > 0.
    """
    t_eq = config.ambient_degc + power_w * config.r_degc_per_w
    return t_eq + (temp_degc - t_eq) * math.exp(-dt / config.time_constant_s)


class ThermalState:
    """Mutable per-socket die temperature.

    :attr:`temp_degc` is the current die temperature in degrees Celsius.
    The node's sync step advances it by the RC law (see :func:`rc_step`).
    """

    __slots__ = ("config", "temp_degc")

    def __init__(self, config: ThermalConfig, *, initial_degc: float | None = None) -> None:
        config.validate()
        self.config = config
        self.temp_degc = config.ambient_degc if initial_degc is None else float(initial_degc)

    def equilibrium_degc(self, power_w: float) -> float:
        """Steady-state temperature at constant power ``power_w``."""
        return self.config.ambient_degc + power_w * self.config.r_degc_per_w

    def warm_to_steady_state(self, power_w: float) -> None:
        """Jump directly to equilibrium — models the paper's 'warm system'
        precondition ("All numbers reported here are from experiments run
        on a warm system", Section II-C)."""
        self.temp_degc = self.equilibrium_degc(power_w)

    def therm_status_raw(self) -> int:
        """IA32_THERM_STATUS-style digital readout.

        Real hardware reports the temperature as an offset below TjMax in
        bits 22:16; we produce the same encoding so the RCR daemon decodes
        it exactly as real tooling would.
        """
        offset = max(0, round(self.config.tjmax_degc - self.temp_degc))
        return (min(offset, 0x7F) & 0x7F) << 16

    @staticmethod
    def decode_therm_status(raw: int, tjmax_degc: float) -> float:
        """Decode a THERM_STATUS readout back to degrees Celsius."""
        offset = (raw >> 16) & 0x7F
        return tjmax_degc - offset
