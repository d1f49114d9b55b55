"""Per-process resource sampling for the live telemetry plane.

A long campaign's operational questions — is a worker leaking memory,
is the parent CPU-bound on reassembly, is GC churning — need per-process
resource telemetry, not just logical progress.  :func:`sample_resources`
reads the *current* process's peak RSS, cumulative user/system CPU time
and per-generation GC collection counts.  The process that took a
sample emits it as a ``worker.resources`` event (pool workers' events
reach the parent bus over the runner's queue), and the parent's
:func:`absorb_event` subscriber folds it into labelled gauges.

Every sampled quantity is **cumulative/peak, hence monotone**: peak RSS
(``ru_maxrss``) never shrinks, CPU seconds and GC collection counts only
grow.  :func:`absorb_resources` therefore folds with ``max``, which
makes absorption **order-independent and idempotent** — duplicate or
out-of-order samples (a retried shard, events from two workers
interleaved on the queue) can never double-count or regress a gauge.
The heartbeat-robustness property tests pin exactly this.

Sampling reads OS counters, not the wall clock, but the values are
still per-run execution detail: the gauges live only in the parent's
registry (worker metric deltas never contain them) and are declared
``execution=True``, so checkpoints and ``repro verify`` ignore them and
results, checkpoints and per-cycle deltas stay byte-identical
(DESIGN §6).
"""

from __future__ import annotations

import gc
import os
import sys
from typing import Any, Dict, Optional

try:  # POSIX-only; absent e.g. on Windows
    import resource as _resource
except ImportError:  # pragma: no cover - platform fallback
    _resource = None

from .events import Event
from .metrics import Gauge, MetricsRegistry, get_registry

RSS_GAUGE = "worker_rss_bytes"
CPU_GAUGE = "worker_cpu_seconds_total"
GC_GAUGE = "worker_gc_collections_total"

_HELP = {
    RSS_GAUGE: "Peak resident set size per process (bytes)",
    CPU_GAUGE: "Cumulative CPU seconds per process, by mode",
    GC_GAUGE: "Cumulative GC collections per process, by generation",
}


def sample_resources() -> Dict[str, Any]:
    """One resource sample of the calling process.

    ``rss_bytes`` is the peak RSS (0 where :mod:`resource` is
    unavailable); CPU times come from ``os.times`` (portable);
    ``gc_collections`` lists the per-generation collection counts.
    """
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS.
        rss = int(usage.ru_maxrss)
        if sys.platform != "darwin":
            rss *= 1024
    else:  # pragma: no cover - platform fallback
        rss = 0
    times = os.times()
    return {
        "rss_bytes": rss,
        "cpu_user_s": round(times.user, 6),
        "cpu_sys_s": round(times.system, 6),
        "gc_collections": [int(stat.get("collections", 0))
                           for stat in gc.get_stats()],
    }


def _fold(gauge: Gauge, value: float, **labels: Any) -> None:
    """Monotone fold: only ever raise the gauge (see module docstring)."""
    if value > gauge.value(**labels):
        gauge.set(value, **labels)


def absorb_resources(shard: Any, sample: Dict[str, Any],
                     registry: Optional[MetricsRegistry] = None) -> None:
    """Fold one process sample into the labelled worker gauges.

    ``shard`` labels the source process: a shard id, ``0`` for the
    serial loop, ``"parent"`` for the parent of a parallel run.
    """
    registry = registry or get_registry()
    shard = str(shard)
    _fold(registry.gauge(RSS_GAUGE, _HELP[RSS_GAUGE], execution=True),
          sample.get("rss_bytes", 0), shard=shard)
    cpu = registry.gauge(CPU_GAUGE, _HELP[CPU_GAUGE], execution=True)
    _fold(cpu, sample.get("cpu_user_s", 0.0), shard=shard, mode="user")
    _fold(cpu, sample.get("cpu_sys_s", 0.0), shard=shard, mode="sys")
    gc_gauge = registry.gauge(GC_GAUGE, _HELP[GC_GAUGE], execution=True)
    for gen, count in enumerate(sample.get("gc_collections", [])):
        _fold(gc_gauge, count, shard=shard, gen=str(gen))


def absorb_event(event: Event) -> None:
    """Bus subscriber: fold each ``worker.resources`` event into the
    gauges of the current registry."""
    if event.kind == "worker.resources":
        absorb_resources(event.fields["shard"], event.fields)
