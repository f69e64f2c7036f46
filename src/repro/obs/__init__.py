"""Observability: metrics registry, Prometheus exposition, trace spans.

The unified observability layer every subsystem hangs its counters on:

* :class:`MetricsRegistry` — dependency-free Counter/Gauge/Histogram
  families with labels, rendered in the Prometheus text exposition format
  (:mod:`repro.obs.metrics`), validated back by the strict parser in
  :mod:`repro.obs.exposition`;
* :class:`TraceLog` — structured JSON-lines tracing with a span API
  (:mod:`repro.obs.tracelog`), summarized back into per-activation tables
  by :mod:`repro.obs.summarize` (``repro-scheduler obs summarize``);
* :data:`NULL_REGISTRY` and :data:`NULL_TRACE` — the no-op defaults every
  instrumented constructor takes for its ``registry`` and ``trace_log``.
  Observability off means these null objects, never ``None``: call sites
  record unconditionally, with no traced/untraced branch, and hot paths
  stay allocation-free;
* :class:`PhaseTimer` — named sub-span timing inside one activation
  (:mod:`repro.obs.phases`), feeding per-phase histograms and trace spans;
* :class:`JobTimeline` — per-job lifecycle reconstruction and latency
  attribution (:mod:`repro.obs.timeline`, ``repro-scheduler obs
  timeline`` / ``obs slowest``).
"""

from repro.obs.exposition import ParsedFamily, parse_exposition
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.phases import PhaseTimer
from repro.obs.summarize import (
    activation_rows,
    event_counts,
    summarize_events,
    summarize_trace,
)
from repro.obs.timeline import (
    JobTimeline,
    attribution_rows,
    attribution_table,
    build_timelines,
    lifecycle_violations,
    render_timelines,
    slowest_report,
    slowest_table,
    timeline_report,
)
from repro.obs.tracelog import NULL_TRACE, TraceLog, TraceSpan, read_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "ParsedFamily",
    "parse_exposition",
    "TraceLog",
    "TraceSpan",
    "NULL_TRACE",
    "read_trace",
    "activation_rows",
    "event_counts",
    "summarize_events",
    "summarize_trace",
    "PhaseTimer",
    "JobTimeline",
    "build_timelines",
    "lifecycle_violations",
    "attribution_rows",
    "attribution_table",
    "render_timelines",
    "slowest_table",
    "timeline_report",
    "slowest_report",
]
