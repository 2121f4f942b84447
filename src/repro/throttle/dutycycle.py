"""Duty-cycle legality and the chip-wide DVFS comparator.

The paper argues for per-core duty-cycle modulation over DVFS
(Section IV): DVFS "requires tens of thousands of cycles to adjust
voltage" and "could only slow all cores or none, whereas our duty cycle
changes are per-core"; duty-cycle modification "takes only the amount of
time equivalent to approximately 250 memory operations".

The MAESTRO workers write the clock-modulation MSR themselves (see
:mod:`repro.qthreads.worker`); :func:`representable_duty` says which duty
cycles that MSR can realise.  :class:`DvfsActuator` is the chip-wide
comparator the Section IV claim test runs against.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.hw.msr import decode_clock_modulation, encode_clock_modulation
from repro.hw.node import Node
from repro.sim.events import Priority

#: DVFS voltage transition cost, seconds ("tens of thousands of cycles";
#: ~50k cycles at 2.7 GHz, plus OS overhead).
DVFS_TRANSITION_S = 30e-6


def representable_duty(duty: float, *, steps: int = 32) -> bool:
    """True if ``duty`` survives the clock-modulation encode/decode round trip.

    Hardware can only realise duty cycles of the form ``level / steps``
    (or exactly 1.0, modulation off).  A throttle decision that commits a
    non-representable duty would silently run at a different speed than
    the policy asked for; the invariant checker uses this predicate to
    flag such decisions.
    """
    if not 0.0 < duty <= 1.0:
        return False
    return decode_clock_modulation(encode_clock_modulation(duty, steps=steps), steps=steps) == duty


class DvfsActuator:
    """Chip-global frequency scaling — the paper's unfavourable comparator.

    Two modelled drawbacks: the transition stalls (applies after a long
    latency), and the setting is *global* to the socket — every core slows,
    including the ones doing useful work.  Frequency scaling is modelled
    through the same per-core duty mechanism (a frequency ratio and a duty
    ratio stretch compute identically in the rate model), applied to all
    cores of the socket at once.
    """

    def __init__(self, node: Node, *, transition_s: float = DVFS_TRANSITION_S) -> None:
        self.node = node
        self.transition_s = transition_s
        self.transitions = 0

    def set_frequency_ratio(self, socket: int, ratio: float) -> None:
        """Scale every core of ``socket`` to ``ratio`` of nominal frequency."""
        if not (0.0 < ratio <= 1.0):
            raise SimulationError(f"frequency ratio must be in (0,1], got {ratio!r}")
        self.transitions += 1
        cores = list(self.node.topology.cores_in_socket(socket))

        def commit() -> None:
            for core in cores:
                self.node.set_duty(core, ratio)

        self.node.engine.schedule(
            self.transition_s, commit, priority=Priority.MACHINE,
            label=f"dvfs-commit socket={socket}",
        )
