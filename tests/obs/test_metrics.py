"""MetricsRegistry semantics: instruments, labels, merge, self-books."""

import pickle

import pytest

from repro.errors import ObsError
from repro.obs import (
    SAMPLE_EVERY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------- basics
def test_counter_accumulates_and_reads_back():
    reg = MetricsRegistry()
    c = reg.counter("jobs_total", "jobs")
    assert c.value() == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value() == 3.5


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    c = reg.counter("jobs_total", "jobs")
    with pytest.raises(ObsError):
        c.inc(-1.0)


def test_gauge_set_is_last_write_wins_locally():
    # ``agg`` picks the multi-process merge rule; local set is always
    # the current level (see test_merge_sums_counters_and_merges_sketches
    # for the max-merge behaviour).
    reg = MetricsRegistry()
    depth = reg.gauge("depth", "queue depth")
    peak = reg.gauge("peak", "peak depth", agg="max")
    depth.set(4.0)
    depth.set(2.0)
    assert depth.value() == 2.0
    peak.set(5.0)
    peak.set(3.0)
    assert peak.value() == 3.0


def test_histogram_quantiles_from_sketch():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", "latency")
    for ms in range(1, 101):
        h.observe(ms / 1000.0)
    sketch = h.sketch()
    assert sketch.count == 100
    assert sketch.quantile(50) == pytest.approx(0.050, rel=0.05)
    assert sketch.quantile(99) == pytest.approx(0.100, rel=0.05)


def test_histogram_clamps_negative_observations_to_zero():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", "latency")
    h.observe(-0.5)
    assert h.sketch().count == 1
    assert h.sketch().min_value == 0.0


# ---------------------------------------------------------------- labels
def test_labeled_series_are_independent():
    reg = MetricsRegistry()
    c = reg.counter("frames_total", "frames", labels=("op",))
    c.inc(op="submit")
    c.inc(op="submit")
    c.inc(op="stats")
    assert c.value(op="submit") == 2.0
    assert c.value(op="stats") == 1.0
    assert c.value(op="ping") == 0.0


def test_no_increment_or_observation_is_lost_at_volume():
    reg = MetricsRegistry()
    plain = reg.counter("plain_total", "plain")
    labeled = reg.counter("labeled_total", "labeled", labels=("op",))
    hist = reg.histogram("lat_seconds", "latency")
    n = 200_000
    for i in range(n):
        plain.inc()
        labeled.inc(op="submit")
        hist.observe(i * 1e-6)
    assert plain.value() == n
    assert labeled.value(op="submit") == n
    assert reg.snapshot().instruments["lat_seconds"].series[()].count == n


def test_label_names_must_match_declaration_exactly():
    reg = MetricsRegistry()
    c = reg.counter("frames_total", "frames", labels=("op",))
    with pytest.raises(ObsError):
        c.inc()  # missing label
    with pytest.raises(ObsError):
        c.inc(op="submit", extra="x")  # undeclared label


def test_invalid_metric_and_label_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ObsError):
        reg.counter("bad name", "x")
    with pytest.raises(ObsError):
        reg.counter("ok_total", "x", labels=("bad-label",))


# ---------------------------------------------------------- registration
def test_reregistration_is_idempotent_on_identical_declaration():
    reg = MetricsRegistry()
    a = reg.counter("jobs_total", "jobs", labels=("kind",))
    b = reg.counter("jobs_total", "jobs", labels=("kind",))
    assert a is b


def test_conflicting_redeclaration_raises():
    reg = MetricsRegistry()
    reg.counter("jobs_total", "jobs")
    with pytest.raises(ObsError):
        reg.gauge("jobs_total", "jobs")  # kind conflict
    with pytest.raises(ObsError):
        reg.counter("jobs_total", "jobs", labels=("kind",))  # label conflict


def test_get_returns_registered_instrument():
    reg = MetricsRegistry()
    c = reg.counter("jobs_total", "jobs")
    assert reg.get("jobs_total") is c
    assert reg.get("missing") is None
    assert isinstance(c, Counter)
    assert isinstance(reg.gauge("g", "g"), Gauge)
    assert isinstance(reg.histogram("h", "h"), Histogram)


# ------------------------------------------------------------- snapshots
def test_snapshot_is_isolated_from_later_recording():
    reg = MetricsRegistry()
    c = reg.counter("jobs_total", "jobs")
    c.inc()
    snap = reg.snapshot()
    c.inc(10)
    assert snap.instruments["jobs_total"].series[()] == 1.0


def test_snapshot_histogram_copy_is_deep():
    reg = MetricsRegistry()
    h = reg.histogram("lat", "lat")
    h.observe(1.0)
    snap = reg.snapshot()
    h.observe(2.0)
    assert snap.instruments["lat"].series[()].count == 1


def test_snapshot_round_trips_through_json_and_pickle():
    reg = MetricsRegistry()
    reg.counter("c_total", "c", labels=("k",)).inc(3, k="a")
    reg.gauge("g", "g").set(1.5)
    h = reg.histogram("h_seconds", "h")
    for v in (0.0, 0.001, 0.5, 2.0):
        h.observe(v)
    snap = reg.snapshot()
    via_json = MetricsSnapshot.from_json_obj(snap.to_json_obj())
    assert via_json.canonical() == snap.canonical()
    via_pickle = pickle.loads(pickle.dumps(snap))
    assert via_pickle.canonical() == snap.canonical()


# ----------------------------------------------------------------- merge
def test_merge_sums_counters_and_merges_sketches():
    def build(n):
        reg = MetricsRegistry()
        reg.counter("c_total", "c").inc(n)
        reg.gauge("peak", "p", agg="max").set(float(n))
        h = reg.histogram("h_seconds", "h")
        for i in range(n):
            h.observe(i / 10.0)
        return reg.snapshot()

    merged = build(3).merge(build(5))
    assert merged.instruments["c_total"].series[()] == 8.0
    assert merged.instruments["peak"].series[()] == 5.0
    assert merged.instruments["h_seconds"].series[()].count == 8


def test_merge_with_empty_is_identity():
    reg = MetricsRegistry()
    reg.counter("c_total", "c").inc(7)
    reg.histogram("h", "h").observe(0.25)
    snap = reg.snapshot()
    assert MetricsSnapshot.empty().merge(snap).canonical() == snap.canonical()
    assert snap.merge(MetricsSnapshot.empty()).canonical() == snap.canonical()


def test_merge_incompatible_instruments_raises():
    ra, rb = MetricsRegistry(), MetricsRegistry()
    ra.counter("x", "x").inc()
    rb.gauge("x", "x").set(1.0)
    with pytest.raises(ObsError):
        ra.snapshot().merge(rb.snapshot())


# ------------------------------------------------------------ self-books
def test_registry_books_count_every_operation():
    reg = MetricsRegistry()
    c = reg.counter("c_total", "c")
    n = SAMPLE_EVERY * 3
    for _ in range(n):
        c.inc()
    snap = reg.snapshot()
    ops = snap.instruments["obs_registry_ops_total"].series[()]
    timed = snap.instruments["obs_registry_timed_ops_total"].series[()]
    assert ops == n
    assert timed == n // SAMPLE_EVERY
    assert reg.estimated_overhead_s >= 0.0


def test_registry_books_extrapolate_overhead():
    # A fake clock makes every sampled op cost exactly 1ms, so the
    # extrapolated estimate is deterministic: ops * 1ms.
    beat = [0.0]

    def clock():
        beat[0] += 0.0005
        return beat[0]

    reg = MetricsRegistry(clock=clock)
    c = reg.counter("c_total", "c")
    for _ in range(SAMPLE_EVERY * 2):
        c.inc()
    # each timed op sees one tick-to-tock delta of 0.5ms
    assert reg.estimated_overhead_s == pytest.approx(
        SAMPLE_EVERY * 2 * 0.0005, rel=1e-9)
