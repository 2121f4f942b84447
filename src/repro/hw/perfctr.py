"""Hardware performance counters.

Aggregated, time-weighted counters maintained by the node's
synchronisation step and read by the RCRdaemon and the test suite.

Per socket:

* accumulated energy (via the RAPL domain, see :mod:`repro.hw.rapl`);
* the time integral of outstanding-reference demand, whose windowed
  average is the "number of outstanding memory references" metric the
  throttling model classifies (Section IV-A, after Mandel et al. [10]);
* the time integral of bandwidth utilisation;
* the time integral of power (for exact average-power queries).

Per core: busy/spin time, completed solo-work, completed segment count
(kept on :class:`repro.hw.core.Core` itself; surfaced here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

_new_tuple = tuple.__new__


@dataclass
class SocketCounters:
    """Time-integrated per-socket counters.

    The node's sync step folds each piecewise-constant interval into the
    integrals in place.
    """

    #: Integral of outstanding-reference demand over time (refs * s).
    demand_integral: float = 0.0
    #: Integral of bandwidth utilisation over time (s).
    bw_util_integral: float = 0.0
    #: Integral of power over time (J) — equals RAPL energy, tracked
    #: separately so tests can cross-check the two accumulation paths.
    power_integral_j: float = 0.0
    #: Wall time covered by the integrals (s).
    elapsed_s: float = 0.0


class CounterSnapshot(NamedTuple):
    """Immutable copy of a socket's counters, used for window deltas."""

    demand_integral: float
    bw_util_integral: float
    power_integral_j: float
    elapsed_s: float


class WindowDelta(NamedTuple):
    """Averages over a window between two snapshots."""

    avg_demand: float = 0.0
    avg_bw_util: float = 0.0
    avg_power_w: float = 0.0
    elapsed_s: float = 0.0


_EMPTY_WINDOW = WindowDelta()


def snapshot(counters: SocketCounters) -> CounterSnapshot:
    """Capture the current integral values."""
    # ``tuple.__new__`` directly: the daemon snapshots every socket on
    # every tick, and the fields are plain floats already.
    return _new_tuple(CounterSnapshot, (
        counters.demand_integral,
        counters.bw_util_integral,
        counters.power_integral_j,
        counters.elapsed_s,
    ))


def window_average(before: CounterSnapshot, after: CounterSnapshot) -> WindowDelta:
    """Time-averaged metrics between two snapshots.

    A zero-length window yields zeros rather than NaNs: the RCRdaemon can
    tick twice at the same instant at simulation start.
    """
    dt = after.elapsed_s - before.elapsed_s
    if dt <= 0:
        return _EMPTY_WINDOW
    return _new_tuple(WindowDelta, (
        (after.demand_integral - before.demand_integral) / dt,
        (after.bw_util_integral - before.bw_util_integral) / dt,
        (after.power_integral_j - before.power_integral_j) / dt,
        dt,
    ))
