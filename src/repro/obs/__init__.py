"""Observability: the event bus, span tracing, metrics.

The library instruments its hot path (simulation, extraction, filters,
classification) against the process-wide singletons exposed here:

* :func:`emit` / :func:`get_event_bus` — the one channel for a run's
  facts (:mod:`repro.obs.events`): an append-only event bus with
  logical sequence numbers always and wall timestamps only under a
  real :class:`Clock`.  Pool workers forward their events to it, and
  every consumer subscribes: :func:`configure_logging` (a key=value or
  JSON-lines formatter on stderr), :class:`ProgressTracker`
  (:mod:`repro.obs.progress`, live campaign progress with ETA),
  :class:`HealthMonitor` and the resource gauges;
* :func:`span` / :func:`get_tracer` — hierarchical wall-time spans.
  The default tracer carries a :class:`NullClock`, so the library never
  reads the wall clock unless a caller opts into profiling
  (DESIGN §6 determinism contract);
* :data:`REGISTRY` / :func:`get_registry` — counters, gauges and
  histograms, all derived deterministically from the data.

Exporters (:mod:`repro.obs.export`) render registry snapshots as JSON
or Prometheus text, and span trees as Chrome trace-event JSON
(Perfetto-loadable).

The **live telemetry plane** (DESIGN §12) builds on all of the above:
:class:`TelemetryServer` (:mod:`repro.obs.live`) serves the live
registry, health, progress and event tail over HTTP while a study
runs; :mod:`repro.obs.resources` samples per-process RSS/CPU/GC on
every heartbeat; :class:`StallWatchdog` (:mod:`repro.obs.watchdog`)
flags shards whose heartbeats go silent past a deadline.  All of it is
opt-in and clock-injected, so the determinism contract holds.  The
server's HTTP transport loads in :meth:`TelemetryServer.start`:
importing this package loads no ``http.server`` (DESIGN §3, import
layering).
"""

from .log import configure as configure_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    delta_total,
    get_registry,
)
from .trace import (
    Clock,
    FakeClock,
    MonotonicClock,
    NullClock,
    Span,
    SpanTotals,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    traced,
)
from .export import (
    PROMETHEUS_CONTENT_TYPE,
    registry_to_json,
    snapshot_to_json,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_metrics_json,
)
from .events import (
    Event,
    EventBus,
    emit,
    event_from_dict,
    get_event_bus,
    read_events,
    set_event_bus,
)
from .progress import ProgressPrinter, ProgressTracker
from .resources import (
    absorb_event,
    absorb_resources,
    sample_resources,
)
from .watchdog import StallWatchdog
from .live import (
    HealthMonitor,
    TelemetryServer,
    parse_endpoint,
)

__all__ = [
    "configure_logging",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "delta_total",
    "get_registry",
    "Clock",
    "FakeClock",
    "MonotonicClock",
    "NullClock",
    "Span",
    "SpanTotals",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
    "traced",
    "registry_to_json",
    "snapshot_to_json",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_metrics_json",
    "Event",
    "EventBus",
    "emit",
    "event_from_dict",
    "get_event_bus",
    "read_events",
    "set_event_bus",
    "ProgressPrinter",
    "ProgressTracker",
    "PROMETHEUS_CONTENT_TYPE",
    "absorb_event",
    "absorb_resources",
    "sample_resources",
    "StallWatchdog",
    "HealthMonitor",
    "TelemetryServer",
    "parse_endpoint",
]
