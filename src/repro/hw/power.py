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
    """Socket power through :meth:`PowerModel.socket_power_w`, for checks.

    The node prices its sockets with this arithmetic inlined in its rate
    loop; this is the independent derivation.  The invariant checker
    compares it against the node's cached ``_socket_power`` at the
    temperature the cache was priced at; the two must match bit for bit.
    """
    return PowerModel(config).socket_power_w(cores, bw_util, temp_degc)


class PowerModel:
    """Stateless power arithmetic for one socket."""

    def __init__(self, config: PowerConfig) -> None:
        config.validate()
        self.config = config

    def leakage_factor(self, temp_degc: float) -> float:
        """Leakage multiplier on static power at ``temp_degc``."""
        factor = 1.0 + self.config.leakage_per_degc * (
            temp_degc - self.config.leakage_ref_degc
        )
        # Leakage cannot make static power negative no matter how cold the
        # model is driven in tests.
        return max(0.1, factor)

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
        it in a loop.  The node prices every socket inline in its rate
        walks, in this same order; the invariant checker uses this method
        as the independent reference for those prices.
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
