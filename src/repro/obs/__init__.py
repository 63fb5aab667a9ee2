"""Observability: trace events, counters, causal spans, invariants.

The paper's headline claims are *counts* and *latency attributions* —
lines flushed instead of pages, redo records skipped instead of
replayed, and which mechanism each nanosecond of commit latency went
to. This package makes both first-class:

* :mod:`repro.obs.probes` — the one slot all five instruments (the
  three below, memsan and the fault injector) install into; hook sites read
  ``PROBES.<name>`` (one attribute load + ``None`` check when disabled).
* :mod:`repro.obs.image` — the world-image cache, here because the
  slot decides whether a build may use it (any instrument installed:
  no).
* :mod:`repro.obs.world` — the world builders every experiment, sweep
  and check runs on, beside the image cache their dataset load uses.
  Not re-exported here: it imports the model, which imports this
  package's probe slot.
* :mod:`repro.obs.trace` — a :class:`Tracer` of structured events in
  bounded per-subsystem ring buffers.
* :mod:`repro.obs.counters` — a :class:`CounterRegistry` of named
  counters, owned by the tracer.
* :mod:`repro.obs.spans` — a :class:`SpanTracer` of begin/end spans in
  simulated time with parent→child causality and mechanism kinds.
* :mod:`repro.obs.critical_path` — per-transaction self-time vs
  child-time decomposition of span trees into mechanism buckets.
* :mod:`repro.obs.export` — Chrome-trace JSON (Perfetto) of recorded
  spans.
* :mod:`repro.obs.invariants` — checkers replaying a trace (protocol
  safety) or a span list (balance/nesting, crash abandonment).
* :mod:`repro.obs.metrics` — a :class:`MetricsPipeline` of labeled
  live time series (windowed rates, window-exact percentiles, sampled
  gauges) scraped on a sim-time interval, and its sparkline dashboard.
* :mod:`repro.obs.slo` — :class:`SLOMonitor` multi-window burn-rate
  alerting and per-entity :class:`HealthTimeline` derivation over the
  scraped series; each renders its own summary lines.

The package has no command line of its own: the fleet HA scenarios
print their telemetry (summaries, dashboards, canonical documents)
through ``python -m repro.ha``.
"""

from .counters import CounterRegistry
from .critical_path import MechanismBreakdown, UNATTRIBUTED, summarize
from .export import to_chrome_trace, write_chrome_trace
from .invariants import (
    InvariantViolationError,
    SpanCheckStats,
    TraceInvariantChecker,
    Violation,
    assert_span_invariants,
    assert_trace_invariants,
    check_span_invariants,
)
from .metrics import (
    MetricsError,
    MetricsPipeline,
    ScrapeWindow,
    Series,
    series_id,
)
from .slo import (
    Alert,
    HealthInterval,
    HealthTimeline,
    SLObjective,
    SLOMonitor,
    check_alignment,
)
from .spans import MECHANISM_KINDS, Span, SpanTracer
from .trace import TraceEvent, Tracer

__all__ = [
    "Alert",
    "CounterRegistry",
    "HealthInterval",
    "HealthTimeline",
    "InvariantViolationError",
    "MECHANISM_KINDS",
    "MechanismBreakdown",
    "MetricsError",
    "MetricsPipeline",
    "SLOMonitor",
    "SLObjective",
    "ScrapeWindow",
    "Series",
    "Span",
    "SpanCheckStats",
    "SpanTracer",
    "TraceEvent",
    "TraceInvariantChecker",
    "Tracer",
    "UNATTRIBUTED",
    "Violation",
    "assert_span_invariants",
    "assert_trace_invariants",
    "check_alignment",
    "check_span_invariants",
    "series_id",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]
