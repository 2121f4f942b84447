"""Deterministic quantile sketches for streaming SLO tails.

A million-job run cannot keep a per-job list just to report p99 wait, so
the streaming aggregation path summarizes each metric into a
:class:`QuantileSketch` — a DDSketch-style logarithmic-bucket histogram
with a *relative-error guarantee*:

    ``|quantile_estimate - true_quantile| <= rel_err * true_quantile``

for every quantile, as long as values fall in the sketch's dynamic range
(``MIN_TRACKABLE`` .. overflow, ~1e-9 .. 1e18 at the default 1%
resolution — twelve orders of magnitude beyond any simulated second or
joule).  Values at or below ``MIN_TRACKABLE`` land in an exact zero
bucket, so a wait of exactly 0 s is reported as exactly 0 s.

Everything is deterministic — bucket boundaries are pure functions of
``rel_err``, insertion order never matters (the sketch is a counter
map), and merging two sketches equals sketching the concatenated stream.
That makes sketches safe for the bit-identity contracts the scheduler
lives under: serial == parallel == resumed-from-checkpoint.

The quantile definition matches :func:`repro.sched.result.percentile`
(nearest-rank, no interpolation): the estimate for percentile *p* is the
representative value of the bucket containing the nearest-rank sample.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.errors import ConfigError

#: Default relative-error bound (1%): the pinned sketch-vs-exact
#: guarantee the validate invariant and tests enforce.
DEFAULT_REL_ERR = 0.01

#: Values at or below this are counted in the exact zero bucket.
MIN_TRACKABLE = 1e-9


class QuantileSketch:
    """Mergeable log-bucket quantile sketch with bounded relative error.

    The bucket for value ``v`` is ``ceil(log_gamma(v))`` with
    ``gamma = (1 + rel_err) / (1 - rel_err)``; the representative value
    of bucket ``i`` is ``2 * gamma**i / (gamma + 1)`` (the harmonic
    midpoint), which is within ``rel_err`` of every value the bucket can
    hold.  State is a plain ``{bucket_index: count}`` dict plus exact
    count/sum/min/max accumulators, so the sketch pickles, merges and
    compares cheaply.
    """

    __slots__ = (
        "rel_err", "_log_gamma", "_gamma1", "zeros", "buckets",
        "count", "total", "min_value", "max_value",
    )

    def __init__(self, rel_err: float = DEFAULT_REL_ERR) -> None:
        if not 0.0 < rel_err < 0.5:
            raise ConfigError(
                f"rel_err must be in (0, 0.5), got {rel_err!r}"
            )
        self.rel_err = rel_err
        gamma = (1.0 + rel_err) / (1.0 - rel_err)
        self._log_gamma = math.log(gamma)
        self._gamma1 = gamma + 1.0
        self.zeros = 0
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Insert one sample (negative values are a caller bug)."""
        if not 0.0 <= value < math.inf:  # negative, NaN or infinite
            raise ConfigError(
                f"sketch values must be finite and >= 0, got {value!r}"
            )
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if value <= MIN_TRACKABLE:
            self.zeros += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # ------------------------------------------------------------------
    def quantile(self, pct: float) -> float:
        """Nearest-rank percentile estimate (0 for an empty sketch)."""
        if not 0.0 <= pct <= 100.0:
            raise ConfigError(f"pct must be in [0, 100], got {pct!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(pct / 100.0 * self.count))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                gamma_i = math.exp(index * self._log_gamma)
                return 2.0 * gamma_i / self._gamma1
        # Float-accounting safety net: the ranked sample must be in the
        # last bucket.
        index = max(self.buckets)
        gamma_i = math.exp(index * self._log_gamma)
        return 2.0 * gamma_i / self._gamma1  # pragma: no cover

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (must share ``rel_err``)."""
        if other.rel_err != self.rel_err:
            raise ConfigError(
                f"cannot merge sketches with rel_err {self.rel_err!r} "
                f"and {other.rel_err!r}"
            )
        self.zeros += other.zeros
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        low, high = other.min_value, other.max_value
        if low is not None and (
            self.min_value is None or low < self.min_value
        ):
            self.min_value = low
        if high is not None and (
            self.max_value is None or high > self.max_value
        ):
            self.max_value = high

    def copy(self) -> "QuantileSketch":
        dup = QuantileSketch(self.rel_err)
        dup.zeros = self.zeros
        dup.buckets = dict(self.buckets)
        dup.count = self.count
        dup.total = self.total
        dup.min_value = self.min_value
        dup.max_value = self.max_value
        return dup

    # ------------------------------------------------------------------
    # identity (pickling, equality, digestable canonical form)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "rel_err": self.rel_err,
            "zeros": self.zeros,
            "buckets": self.buckets,
            "count": self.count,
            "total": self.total,
            "min_value": self.min_value,
            "max_value": self.max_value,
        }

    def __setstate__(self, state) -> None:
        self.__init__(state["rel_err"])
        self.zeros = state["zeros"]
        self.buckets = dict(state["buckets"])
        self.count = state["count"]
        self.total = state["total"]
        self.min_value = state["min_value"]
        self.max_value = state["max_value"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:  # state is mutable; hash by identity
        return id(self)

    def canonical(self) -> str:
        """Deterministic text form (folded into result digests)."""
        parts = [
            f"rel_err={self.rel_err!r}",
            f"zeros={self.zeros}",
            f"count={self.count}",
            f"total={self.total!r}",
            f"min={self.min_value!r}",
            f"max={self.max_value!r}",
            "buckets=" + ",".join(
                f"{i}:{self.buckets[i]}" for i in sorted(self.buckets)
            ),
        ]
        return ";".join(parts)

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(rel_err={self.rel_err}, count={self.count}, "
            f"buckets={len(self.buckets)})"
        )
