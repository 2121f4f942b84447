"""Model-specific register (MSR) interface.

The paper's measurement and control paths all go through MSRs:

* ``MSR_PKG_ENERGY_STATUS`` (0x611) — the RAPL per-package energy counter,
  15.3 microJoule units, 32 bits, wraps in a few minutes (Section II-A);
* ``IA32_THERM_STATUS`` (0x19C) — per-package digital temperature readout;
* ``IA32_CLOCK_MODULATION`` (0x19A) — per-core duty-cycle control, the
  actuation mechanism the MAESTRO throttler uses instead of DVFS
  (Section IV);
* ``MSR_RAPL_POWER_UNIT`` (0x606) and ``MSR_PKG_POWER_LIMIT`` (0x610) —
  used by the power-clamping extension.

Both the register addresses and the access semantics (kernel permission
required, footnote 3 of the paper; an MSR write costs ~250 memory
operations including call and OS overhead) are modelled so clients are
structured exactly like real RAPL tooling.

Registers are backed by reader/writer hooks registered by the devices that
own them (the RAPL domain, the thermal model, each core).  The MSR file
itself is just an address decoder with a permission gate.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MSRAddressError, MSRPermissionError

# Architectural MSR addresses (Intel SDM vol. 4, Sandybridge).
IA32_MPERF = 0xE7
IA32_APERF = 0xE8
IA32_CLOCK_MODULATION = 0x19A
IA32_THERM_STATUS = 0x19C
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_POWER_LIMIT = 0x610
MSR_PKG_ENERGY_STATUS = 0x611

#: Value of MSR_RAPL_POWER_UNIT matching a 15.3 uJ energy unit.  The
#: architectural encoding stores the energy unit in bits 12:8 as
#: ``1 / 2**ESU`` Joules; 2**-16 J = 15.26 uJ is the Sandybridge value the
#: paper rounds to 15.3 uJ.  We expose the architectural encoding but the
#: simulator's unit constant is exactly 15.3 uJ (see repro.units).
RAPL_POWER_UNIT_RAW = 0x10 << 8

ReadHook = Callable[[], int]
WriteHook = Callable[[int], None]


def encode_clock_modulation(duty: float, *, steps: int = 32) -> int:
    """Encode a duty-cycle fraction as an IA32_CLOCK_MODULATION value.

    Layout (extended modulation): bit 4 = enable, bits 3:0 = level, where
    the effective duty cycle is ``level / steps``.  ``duty >= 1`` disables
    modulation entirely (enable bit clear), which is how the runtime
    restores full speed.
    """
    # Inverted so NaN, which fails every comparison, is refused here too.
    if not duty > 0:
        raise ValueError(f"duty must be positive, got {duty!r}")
    if duty >= 1.0:
        return 0
    level = max(1, round(duty * steps))
    if level >= steps:
        return 0
    # Extended clock modulation packs level into bits 3:0 with 1/16 (or
    # with the extension bit, 1/32) granularity; we model 1/32 steps with
    # a 5-bit level field below the enable bit for clarity.
    return (1 << 5) | level


def decode_clock_modulation(raw: int, *, steps: int = 32) -> float:
    """Decode IA32_CLOCK_MODULATION into an effective duty fraction."""
    if raw < 0:
        raise ValueError(f"register value must be non-negative, got {raw!r}")
    enabled = bool(raw & (1 << 5))
    if not enabled:
        return 1.0
    level = raw & 0x1F
    if level == 0:
        # Architecturally reserved; hardware treats it as the minimum step.
        level = 1
    return level / steps


def is_legal_clock_modulation(raw: int, *, steps: int = 32) -> bool:
    """Strict legality of an IA32_CLOCK_MODULATION value.

    Stricter than :func:`decode_clock_modulation`, which forgives the
    architecturally reserved level 0: legal values are exactly 0 (disabled)
    or enable bit + level in ``[1, steps - 1]`` with no stray bits.  The
    invariant checker uses this to flag writes the decoder would quietly
    paper over.
    """
    if raw == 0:
        return True
    if raw < 0 or raw & ~((1 << 5) | 0x1F):
        return False
    if not raw & (1 << 5):
        return False  # level bits without the enable bit
    level = raw & 0x1F
    return 1 <= level <= steps - 1


class MSRFile:
    """Address-decoded register file with a supervisor permission gate.

    Scope: registers are keyed by ``(unit, address)`` where ``unit`` is a
    flat core index for per-core MSRs and a socket index for package MSRs.
    The caller picks the right keyspace via :meth:`read_core` /
    :meth:`read_package` (mirroring how ``/dev/cpu/*/msr`` exposes package
    MSRs through any core of the package).
    """

    def __init__(self) -> None:
        self._core_regs: dict[tuple[int, int], tuple[Optional[ReadHook], Optional[WriteHook]]] = {}
        self._pkg_regs: dict[tuple[int, int], tuple[Optional[ReadHook], Optional[WriteHook]]] = {}

    # ------------------------------------------------------------------
    # registration (device side)
    # ------------------------------------------------------------------
    def map_core(self, core: int, address: int,
                 reader: Optional[ReadHook] = None,
                 writer: Optional[WriteHook] = None) -> None:
        """Back a per-core MSR with device hooks."""
        self._core_regs[(core, address)] = (reader, writer)

    def map_package(self, socket: int, address: int,
                    reader: Optional[ReadHook] = None,
                    writer: Optional[WriteHook] = None) -> None:
        """Back a per-package MSR with device hooks."""
        self._pkg_regs[(socket, address)] = (reader, writer)

    # ------------------------------------------------------------------
    # access (client side)
    # ------------------------------------------------------------------
    def read_core(self, core: int, address: int, *, privileged: bool = False) -> int:
        """Read a per-core MSR."""
        if not privileged:
            raise _refused(f"rdmsr core={core} addr={address:#x}")
        entry = self._core_regs.get((core, address))
        if entry is None or entry[0] is None:
            raise MSRAddressError(f"unmapped core MSR {address:#x} on core {core}")
        return entry[0]()

    def write_core(self, core: int, address: int, value: int, *, privileged: bool = False) -> None:
        """Write a per-core MSR."""
        if not privileged:
            raise _refused(f"wrmsr core={core} addr={address:#x}")
        entry = self._core_regs.get((core, address))
        if entry is None or entry[1] is None:
            raise MSRAddressError(f"core MSR {address:#x} on core {core} is not writable")
        entry[1](value)

    def read_package(self, socket: int, address: int, *, privileged: bool = False) -> int:
        """Read a per-package MSR."""
        if not privileged:
            raise _refused(f"rdmsr pkg={socket} addr={address:#x}")
        entry = self._pkg_regs.get((socket, address))
        if entry is None or entry[0] is None:
            raise MSRAddressError(f"unmapped package MSR {address:#x} on socket {socket}")
        return entry[0]()

    def write_package(self, socket: int, address: int, value: int, *, privileged: bool = False) -> None:
        """Write a per-package MSR."""
        if not privileged:
            raise _refused(f"wrmsr pkg={socket} addr={address:#x}")
        entry = self._pkg_regs.get((socket, address))
        if entry is None or entry[1] is None:
            raise MSRAddressError(f"package MSR {address:#x} on socket {socket} is not writable")
        entry[1](value)


def _refused(what: str) -> MSRPermissionError:
    """The error for an unprivileged access; ``what`` names the access.

    Callers format ``what`` only on the refused path: the daemon's
    privileged reads are on the hot path and never need it.
    """
    return MSRPermissionError(
        f"{what} requires supervisor (kernel) permission; "
        "run the daemon as root (paper, footnote 3)"
    )
