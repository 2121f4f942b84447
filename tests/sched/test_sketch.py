"""QuantileSketch: the guaranteed error bound, merging, identity."""

import math
import pickle

import pytest

from repro.errors import ConfigError
from repro.sched.sketch import DEFAULT_REL_ERR, MIN_TRACKABLE, QuantileSketch
from repro.sched.result import percentile

pytestmark = pytest.mark.sched


def _lcg_values(n: int, seed: int = 1) -> list[float]:
    # Deterministic pseudo-random positives spanning several decades.
    values, state = [], seed
    for _ in range(n):
        state = (state * 48271) % 2147483647
        values.append((state % 100000) / 100.0 + (state % 7) * 1e-4)
    return values


def test_quantile_within_guaranteed_relative_error():
    values = _lcg_values(5000)
    sketch = QuantileSketch()
    sketch.extend(values)
    for pct in (1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100):
        exact = percentile(values, pct)
        got = sketch.quantile(pct)
        assert abs(got - exact) <= DEFAULT_REL_ERR * exact + 1e-12, (
            f"p{pct}: {got} vs exact {exact}"
        )


def test_tighter_rel_err_is_honoured():
    values = _lcg_values(2000, seed=9)
    sketch = QuantileSketch(rel_err=0.001)
    sketch.extend(values)
    for pct in (50, 95, 99):
        exact = percentile(values, pct)
        assert abs(sketch.quantile(pct) - exact) <= 0.001 * exact + 1e-12


def test_zero_bucket_is_exact():
    sketch = QuantileSketch()
    sketch.extend([0.0] * 90 + [5.0] * 10)
    assert sketch.quantile(50) == 0.0
    assert sketch.quantile(89) == 0.0
    assert sketch.quantile(99) == pytest.approx(5.0, rel=DEFAULT_REL_ERR)
    assert sketch.zeros == 90
    # Sub-resolution values count as zero too.
    sketch.add(MIN_TRACKABLE / 2)
    assert sketch.zeros == 91


def test_mean_min_max_are_exact():
    values = _lcg_values(400, seed=3)
    sketch = QuantileSketch()
    sketch.extend(values)
    assert sketch.mean == pytest.approx(sum(values) / len(values), abs=0)
    assert sketch.min_value == min(values)
    assert sketch.max_value == max(values)


def test_merge_equals_single_stream():
    values = _lcg_values(3000, seed=5)
    whole = QuantileSketch()
    whole.extend(values)
    left, right = QuantileSketch(), QuantileSketch()
    left.extend(values[:1300])
    right.extend(values[1300:])
    left.merge(right)
    # Bucket state (and thus every quantile), counts and extremes are
    # exactly order-independent; only `total` can differ in the last ulp
    # because float addition is not associative.
    assert left.buckets == whole.buckets
    assert (left.zeros, left.count) == (whole.zeros, whole.count)
    assert (left.min_value, left.max_value) == (
        whole.min_value, whole.max_value
    )
    assert left.total == pytest.approx(whole.total, rel=1e-12)
    for pct in (50, 95, 99):
        assert left.quantile(pct) == whole.quantile(pct)


def test_merge_rejects_mismatched_resolution():
    with pytest.raises(ConfigError):
        QuantileSketch(rel_err=0.01).merge(QuantileSketch(rel_err=0.02))


def test_insertion_order_never_changes_quantiles():
    values = _lcg_values(500, seed=11)
    forward, backward = QuantileSketch(), QuantileSketch()
    forward.extend(values)
    backward.extend(reversed(values))
    assert forward.buckets == backward.buckets
    assert (forward.min_value, forward.max_value) == (
        backward.min_value, backward.max_value
    )
    for pct in (1, 50, 99):
        assert forward.quantile(pct) == backward.quantile(pct)


def test_pickle_round_trip_preserves_identity():
    sketch = QuantileSketch()
    sketch.extend(_lcg_values(200))
    clone = pickle.loads(pickle.dumps(sketch))
    assert clone == sketch
    assert clone.canonical() == sketch.canonical()
    clone.add(1.0)
    assert clone != sketch  # independent state after the round trip


def test_copy_is_independent():
    sketch = QuantileSketch()
    sketch.extend([1.0, 2.0, 3.0])
    dup = sketch.copy()
    dup.add(100.0)
    assert sketch.count == 3 and dup.count == 4


def test_rejects_garbage():
    with pytest.raises(ConfigError):
        QuantileSketch(rel_err=0.0)
    with pytest.raises(ConfigError):
        QuantileSketch(rel_err=0.5)
    sketch = QuantileSketch()
    for bad in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            sketch.add(bad)
    assert sketch.count == 0
    sketch.add(-0.0)  # compares equal to 0.0: a zero, not a negative
    assert sketch.zeros == 1
    with pytest.raises(ConfigError):
        sketch.quantile(101)


def test_empty_sketch_reports_zero():
    sketch = QuantileSketch()
    assert sketch.quantile(99) == 0.0
    assert sketch.mean == 0.0
