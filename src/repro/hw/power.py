"""Instantaneous socket power model.

Per-socket package power is the sum of:

* temperature-dependent static power — uncore (LLC, ring, memory
  controller) plus per-core idle or active-base power, all scaled by a
  linear leakage factor ``1 + k * (T - T_ref)``.  The leakage term is what
  reproduces the paper's observation (footnote 2) that a cold chip draws
  measurably less power for identical work;
* per-core dynamic power — full-rate issue power scaled by the duty cycle
  and the fraction of wall time actually issuing, plus stall power for the
  fraction of wall time blocked on memory;
* bandwidth-proportional memory-controller power.

Calibration of the constants against the paper's measured wattages is
documented in :class:`repro.config.PowerConfig`.
"""

from __future__ import annotations

from typing import Iterable

from repro.config import PowerConfig
from repro.hw.core import Core, CoreState


def reference_socket_power_w(
    config: PowerConfig,
    cores: Iterable[Core],
    bw_util: float,
    temp_degc: float,
) -> float:
    """Memo-free socket power for differential checks.

    Evaluates :meth:`PowerModel.socket_power_w` on a *fresh* model so no
    cached leakage pair can mask a stale-memo bug.  The invariant checker
    compares this against the node's cached ``_socket_power`` at the
    temperature the cache was priced at; the two must match bit for bit.
    """
    return PowerModel(config).socket_power_w(cores, bw_util, temp_degc)


class PowerModel:
    """Stateless power arithmetic for one socket.

    The only state is a one-entry memo on :meth:`leakage_factor`: callers
    evaluate it repeatedly at the *same* temperature (once per core during
    a sync or a socket-power sum), and socket temperature only moves when
    simulated time does, so the last ``(temp, factor)`` pair hits almost
    every call within one integration step.  The memo returns the exact
    float the formula would produce, so results are bit-identical.
    """

    def __init__(self, config: PowerConfig) -> None:
        config.validate()
        self.config = config
        self._leak_temp: float | None = None
        self._leak_factor: float = 1.0

    def leakage_factor(self, temp_degc: float) -> float:
        """Leakage multiplier on static power at ``temp_degc``."""
        if temp_degc == self._leak_temp:
            return self._leak_factor
        factor = 1.0 + self.config.leakage_per_degc * (
            temp_degc - self.config.leakage_ref_degc
        )
        # Leakage cannot make static power negative no matter how cold the
        # model is driven in tests.
        factor = max(0.1, factor)
        self._leak_temp = temp_degc
        self._leak_factor = factor
        return factor

    def core_power_w(self, core: Core, leak: float) -> float:
        """Instantaneous power of one core given the leakage factor."""
        cfg = self.config
        if core.state is CoreState.OFF:
            return 0.0
        if core.state is CoreState.IDLE:
            return cfg.core_idle_w * leak
        if core.state is CoreState.SPIN:
            # Clocked but doing no work: active base (leaky) plus the
            # duty-modulated issue power of the spin loop itself.
            return cfg.core_active_base_w * leak + cfg.core_cpu_w * core.duty
        # BUSY
        scale = core.segment.power_scale if core.segment is not None else 1.0
        mu_wall = core.mem_wall_fraction
        dynamic = (
            cfg.core_cpu_w * core.duty * (1.0 - mu_wall)
            + cfg.core_stall_w * mu_wall
        )
        return scale * (cfg.core_active_base_w * leak + dynamic)

    def socket_power_w(
        self,
        cores: Iterable[Core],
        bw_util: float,
        temp_degc: float,
    ) -> float:
        """Total package power of one socket.

        Inlines :meth:`core_power_w` with the same per-core expressions and
        the same accumulation order, so the sum is bit-identical to calling
        it in a loop.  The node prices a socket whose rates changed in its
        fused rate loop, in this same order; it calls this method for a
        clean socket whose temperature moved, and the invariant checker
        uses it as the memo-free reference for both.
        """
        cfg = self.config
        leak = self.leakage_factor(temp_degc)
        total = cfg.uncore_w * leak
        idle_w = cfg.core_idle_w
        base_w = cfg.core_active_base_w
        cpu_w = cfg.core_cpu_w
        stall_w = cfg.core_stall_w
        busy = CoreState.BUSY
        idle = CoreState.IDLE
        spin = CoreState.SPIN
        for core in cores:
            state = core.state
            if state is busy:
                segment = core.segment
                scale = segment.power_scale if segment is not None else 1.0
                mu_wall = core.mem_wall_fraction
                dynamic = cpu_w * core.duty * (1.0 - mu_wall) + stall_w * mu_wall
                total += scale * (base_w * leak + dynamic)
            elif state is idle:
                total += idle_w * leak
            elif state is spin:
                total += base_w * leak + cpu_w * core.duty
            # OFF contributes exactly 0.0; skipping the add leaves the
            # (strictly positive) total bit-identical.
        total += cfg.bandwidth_w * max(0.0, min(1.0, bw_util))
        return total
