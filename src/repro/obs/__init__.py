"""Unified observability: metrics, trace spans, and exporters.

The operational layer the rest of the stack reports into:

* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` with labelled
  Counter/Gauge/Histogram instruments; histograms reuse the scheduler's
  deterministic :class:`~repro.sched.sketch.QuantileSketch`, so
  percentiles are exact-mergeable across processes and bit-reproducible;
  the registry self-measures its own overhead (observer-effect books,
  mirroring :mod:`repro.metering`);
* :mod:`~repro.obs.trace` — parent-linked spans with wall clocks in the
  service and explicit sim-time stamps inside the simulator, exported
  as NDJSON or Chrome-trace JSON;
* :mod:`~repro.obs.export` — Prometheus text exposition (served by the
  service's ``metrics`` frame and optional HTTP scrape port) and its
  parsing inverse;
* :mod:`~repro.obs.report` — the ``repro obs report`` renderer.

Instrumented modules (harness executor, cluster sim) take the
registry/recorder as *optional duck-typed parameters* — they never
import this package, observability off is the default, and enabling it
cannot perturb simulated physics (golden digests stay bit-identical).

Lifecycle counters (``harness_runs_total``, ``service_events_total``,
``sched_jobs_dispatched_total``, ``sched_jobs_shed_total``) are not
counted by the components: they are folded into the registry from the
lifecycle events by :data:`repro.harness.telemetry.FOLD`.  Everything
else (wall-time histograms, cache counters, gauges) is a
direct instrument call.
"""

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    ParsedExposition,
    parse_prometheus,
    to_prometheus,
)
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    SAMPLE_EVERY,
    Counter,
    Gauge,
    Histogram,
    InstrumentSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.report import render_metrics_frame, render_snapshot
from repro.obs.trace import DEFAULT_MAX_SPANS, Span, SpanRecorder

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "SAMPLE_EVERY",
    "DEFAULT_MAX_SPANS",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "InstrumentSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ParsedExposition",
    "Span",
    "SpanRecorder",
    "parse_prometheus",
    "to_prometheus",
    "render_metrics_frame",
    "render_snapshot",
]
