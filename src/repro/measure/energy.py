"""Wrap-aware, fault-tolerant RAPL energy accumulation.

``MSR_PKG_ENERGY_STATUS`` counts energy in 15.3 microJoule units in a
32-bit register, so it wraps roughly every

    2**32 * 15.3e-6 J  ~=  65.7 kJ  ~=  7-15 minutes per socket

at the paper's observed power draws ("Since the counter is only 32 bits
wide it can wrap around in a few minutes.  The measurement tools monitor
the number of wraps to obtain valid application energy consumption
numbers", Section II-A).  :class:`EnergyReader` is that measurement tool:
it polls the raw register, computes modular deltas, and accumulates them
into a monotonic Joule total.  Its correctness precondition — at most one
wrap between polls — is guaranteed by the RCRdaemon's 0.1 s cadence.

The hardened path tolerates the failure modes a real ``/dev/cpu/*/msr``
chain exhibits:

* **transient read failures** (:class:`~repro.errors.MSRReadError`, the
  ``EIO`` analog) are retried up to a budget; exhausted retries fall back
  to rate-based interpolation;
* **stuck counters** (the register repeating a stale value while energy is
  clearly flowing) are detected against a running rate estimate and
  bridged by interpolation, with the outstanding interpolated ticks
  reconciled against the next good read so nothing double-counts;
* **missed wraps** (a poll gap long enough that the at-most-one-wrap
  precondition fails) are suspected from the rate estimate and recovered
  by folding the missing full periods back in.

Every poll reports a :class:`SampleQuality` flag so downstream consumers
(the RCRdaemon, the throttle controller) can distinguish measured truth
from bridged estimates.  With no faults injected the hardened path is
numerically identical to the original reader: one register read per poll,
the same modular delta, the same wrap count.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.errors import MeasurementError, MSRReadError
from repro.hw.msr import MSR_PKG_ENERGY_STATUS, MSRFile
from repro.units import (
    RAPL_COUNTER_MODULUS,
    rapl_delta_and_wrap,
    rapl_ticks_to_joules,
)


class SampleQuality(enum.IntEnum):
    """Provenance of one energy sample, ordered from best to worst."""

    #: Clean read, clean delta.
    OK = 0
    #: Read succeeded only after one or more retries; value is measured.
    RETRIED = 1
    #: Read failed or counter stuck; delta is a rate-based estimate.
    INTERPOLATED = 2
    #: Poll gap long enough that full counter periods may have been missed;
    #: delta includes recovered wraps and must be treated as an estimate.
    WRAP_SUSPECT = 3


class EnergySample(NamedTuple):
    """One hardened poll of a socket's energy counter.

    Tuple-backed: the readers build one per socket per daemon tick with
    ``tuple.__new__``, their fields being valid by construction.
    """

    #: Cumulative Joules since the reader was created (monotonic).
    total_joules: float
    #: Ticks attributed to this poll window (measured or estimated).
    delta_ticks: int
    quality: SampleQuality
    #: Read attempts beyond the first for this poll.
    retries: int
    #: Observed wrap count so far (recovered wraps included).
    wraps: int

    @property
    def good(self) -> bool:
        """True when the sample is measured rather than estimated."""
        return self.quality in (SampleQuality.OK, SampleQuality.RETRIED)


_new_tuple = tuple.__new__


#: Minimum expected progress (ticks) before a repeated register value is
#: treated as a stuck counter rather than a genuinely idle window.
_STUCK_MIN_TICKS = 16.0

#: Fraction of a full counter period of expected progress beyond which the
#: at-most-one-wrap precondition is considered violated.
_WRAP_SUSPECT_FRAC = 0.5


class EnergyReader:
    """Monotonic energy accumulator over one socket's wrapping counter."""

    def __init__(self, msr: MSRFile, socket: int, *, retry_limit: int = 3) -> None:
        if retry_limit < 0:
            raise MeasurementError(f"retry_limit must be >= 0, got {retry_limit!r}")
        self._msr = msr
        self.socket = socket
        self.retry_limit = retry_limit
        self._total_ticks = 0
        self._wraps = 0
        #: Running estimate of the counter rate (ticks/s) from good polls.
        self._rate_ticks_per_s: Optional[float] = None
        #: Interpolated ticks not yet reconciled against a good read.
        self._interp_ticks = 0
        #: Diagnostics: total retries, polls bridged by interpolation,
        #: stuck polls detected, and wraps recovered from suspected misses.
        self.retries_total = 0
        self.interpolated_polls = 0
        self.stuck_polls = 0
        self.wraps_recovered = 0
        #: Quality histogram over all polls.
        self.quality_counts: dict[SampleQuality, int] = {q: 0 for q in SampleQuality}
        # The baseline read is retried like any other; if the register is
        # unreadable even then, start from 0 — the first successful poll
        # re-anchors at the true register value and only the (unknowable)
        # pre-attach energy is misattributed to the first window.
        raw, _retries = self._read_with_retry()
        self._last_raw = raw if raw is not None else 0

    def _read_raw(self) -> int:
        return self._msr.read_package(
            self.socket, MSR_PKG_ENERGY_STATUS, privileged=True
        )

    @property
    def wraps(self) -> int:
        """Number of counter wraps observed so far."""
        return self._wraps

    @property
    def total_joules(self) -> float:
        """Energy accumulated since this reader was created, Joules."""
        return rapl_ticks_to_joules(self._total_ticks)

    # ------------------------------------------------------------------
    # polling
    # ------------------------------------------------------------------
    def poll(self) -> float:
        """Read the counter, fold in the (modular) delta, return the total.

        Must be called at least once per counter period (~10 minutes at
        100 W) or wraps will be missed — the same contract real RAPL
        clients live under.  This is the legacy interface; it is exactly
        ``poll_sample().total_joules``.
        """
        return self.poll_sample().total_joules

    def poll_sample(self, window_s: Optional[float] = None) -> EnergySample:
        """Hardened poll: retry, detect stuck counters, flag quality.

        ``window_s`` is the caller's estimate of the time since the last
        poll; when provided it enables stuck-counter detection and
        missed-wrap suspicion (both need an expected-progress baseline).
        """
        raw, retries = self._read_with_retry()
        if raw is None:
            sample = self._interpolate(window_s, retries)
        else:
            sample = self._ingest(raw, retries, window_s)
        self.quality_counts[sample.quality] += 1
        return sample

    def _read_with_retry(self) -> tuple[Optional[int], int]:
        """Read the register, retrying transient failures up to the budget.

        In simulation the retries are immediate (the backoff a real client
        would sleep through has no power cost worth modelling); the retry
        *count* is what matters for quality accounting.
        """
        # Fast path: with no faults injected the first read always
        # succeeds, so the common case is one try and no loop setup.
        try:
            return self._read_raw(), 0
        except MSRReadError:
            retries = 1
            self.retries_total += 1
        for _attempt in range(self.retry_limit):
            try:
                return self._read_raw(), retries
            except MSRReadError:
                retries += 1
                self.retries_total += 1
        return None, retries

    def _expected_ticks(self, window_s: Optional[float]) -> Optional[float]:
        if window_s is None or window_s <= 0 or self._rate_ticks_per_s is None:
            return None
        return self._rate_ticks_per_s * window_s

    def _interpolate(self, window_s: Optional[float], retries: int) -> EnergySample:
        """Bridge a poll whose read failed outright with a rate estimate."""
        expected = self._expected_ticks(window_s)
        delta = int(round(expected)) if expected is not None else 0
        self._total_ticks += delta
        self._interp_ticks += delta
        self.interpolated_polls += 1
        # _last_raw is left untouched: the next successful read computes
        # the true modular delta across the outage and _interp_ticks is
        # subtracted so the bridged energy is not counted twice.
        return _new_tuple(EnergySample, (
            self.total_joules,
            delta,
            SampleQuality.INTERPOLATED,
            retries,
            self._wraps,
        ))

    def _ingest(
        self, raw: int, retries: int, window_s: Optional[float]
    ) -> EnergySample:
        """Fold one successful register read into the running total."""
        delta, wrapped = rapl_delta_and_wrap(self._last_raw, raw)
        expected = self._expected_ticks(window_s)

        # Missed-wrap suspicion: the window was long enough (at the
        # observed rate) that full counter periods may have elapsed.  The
        # missing periods are recovered by rounding the shortfall to whole
        # wraps — this also handles the exact-wrap edge case where
        # raw == last_raw after precisely one period (delta == 0).
        if expected is not None and expected >= _WRAP_SUSPECT_FRAC * RAPL_COUNTER_MODULUS:
            missed = max(0, int(round((expected - delta) / RAPL_COUNTER_MODULUS)))
            self._last_raw = raw
            self._wraps += missed + (1 if wrapped else 0)
            self.wraps_recovered += missed
            contribution = delta + missed * RAPL_COUNTER_MODULUS
            contribution = max(0, contribution - self._interp_ticks)
            self._interp_ticks = 0
            self._total_ticks += contribution
            return _new_tuple(EnergySample, (
                self.total_joules,
                contribution,
                SampleQuality.WRAP_SUSPECT,
                retries,
                self._wraps,
            ))

        # Stuck-counter detection: no register progress over a window in
        # which the established rate predicts clearly-measurable energy.
        # (Uncore power alone is ~20 W per socket, so a genuinely flat
        # window at daemon cadence is never silent on real progress.)
        if (
            delta == 0
            and expected is not None
            and expected >= _STUCK_MIN_TICKS
        ):
            self.stuck_polls += 1
            est = int(round(expected))
            self._total_ticks += est
            self._interp_ticks += est
            self.interpolated_polls += 1
            return _new_tuple(EnergySample, (
                self.total_joules,
                est,
                SampleQuality.INTERPOLATED,
                retries,
                self._wraps,
            ))

        # Clean (or merely retried) sample.
        self._last_raw = raw
        if wrapped:
            self._wraps += 1
        reconciling = self._interp_ticks > 0
        contribution = max(0, delta - self._interp_ticks)
        self._interp_ticks = 0
        self._total_ticks += contribution
        # A reconciliation read's delta spans the whole bridged outage,
        # not one window — feeding it into the rate estimate would inflate
        # the rate by the outage length and over-credit the next outage.
        if window_s is not None and window_s > 0 and delta > 0 and not reconciling:
            self._rate_ticks_per_s = delta / window_s
        quality = SampleQuality.RETRIED if retries > 0 else SampleQuality.OK
        return _new_tuple(EnergySample, (
            self.total_joules,
            contribution,
            quality,
            retries,
            self._wraps,
        ))


class MultiSocketEnergyReader:
    """Convenience bundle of one :class:`EnergyReader` per socket."""

    def __init__(self, msr: MSRFile, sockets: int, *, retry_limit: int = 3) -> None:
        if sockets <= 0:
            raise MeasurementError(f"sockets must be positive, got {sockets!r}")
        self.readers = [
            EnergyReader(msr, s, retry_limit=retry_limit) for s in range(sockets)
        ]

    def poll(self) -> list[float]:
        """Poll every socket; returns per-socket cumulative Joules."""
        return [reader.poll() for reader in self.readers]

    def poll_samples(self, window_s: Optional[float] = None) -> list[EnergySample]:
        """Hardened poll of every socket."""
        return [reader.poll_sample(window_s) for reader in self.readers]

    @property
    def totals_j(self) -> list[float]:
        """Per-socket cumulative Joules at the last poll."""
        return [reader.total_joules for reader in self.readers]

    @property
    def total_j(self) -> float:
        """Whole-node cumulative Joules at the last poll."""
        return sum(reader.total_joules for reader in self.readers)
