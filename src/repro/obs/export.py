"""Exporters for metrics snapshots and trace trees.

Three formats:

* JSON — the registry snapshot dict, verbatim, for ``--metrics-out``
  and programmatic diffing;
* Prometheus text exposition (version 0.0.4) — ``# HELP``/``# TYPE``
  headers plus one sample per label set, histograms expanded into
  ``_bucket``/``_sum``/``_count`` series with cumulative ``le`` bounds;
* Chrome trace-event JSON (``--trace-out``) — the tracer's span trees
  as complete (``"ph": "X"``) events, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans grafted
  from workers (tagged with a ``shard`` attribute) render on their own
  named track, so a sharded study shows parent and worker timelines
  side by side.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .metrics import MetricsRegistry, get_registry
from .trace import Span, Tracer

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""The standard content type of the text exposition format — what a
``/metrics`` HTTP handler (:mod:`repro.obs.live`) must declare."""


def snapshot_to_json(snapshot: Mapping[str, Any], indent: int = 2) -> str:
    """Serialize a registry snapshot (or diff/merge result) to JSON."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def write_metrics_json(path: Union[str, Path],
                       registry: Optional[MetricsRegistry] = None,
                       trace: Optional[Tracer] = None) -> None:
    """Write ``{"metrics": ..., "spans": ...}`` to ``path``.

    ``spans`` is included only when a tracer is given and recorded
    anything — plain metric dumps stay pure snapshots.
    """
    payload: Dict[str, Any] = {
        "metrics": (registry or get_registry()).snapshot(),
    }
    if trace is not None and trace.roots:
        payload["spans"] = trace.to_dict()
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def _prom_labels(labels: Mapping[str, str],
                 extra: Optional[Mapping[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_number(value: float) -> str:
    """One Prometheus-canonical number.

    Non-finite values use the exposition-format spellings (``+Inf``,
    ``-Inf``, ``NaN`` — a histogram declared with an explicit infinite
    bound must not render Python's ``inf``); integral floats drop the
    ``.0``; and scientific notation from ``repr`` (``1e-07``,
    ``1e+21``) is expanded to plain decimal so ``le`` label values stay
    canonical across magnitudes.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value):
            return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def to_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The whole registry in Prometheus text exposition format."""
    registry = registry or get_registry()
    lines: List[str] = []
    for name, data in registry.snapshot().items():
        if data["help"]:
            lines.append(f"# HELP {name} {data['help']}")
        lines.append(f"# TYPE {name} {data['type']}")
        if data["type"] == "histogram":
            bounds = data["buckets"]
            for entry in data["values"]:
                labels, cell = entry["labels"], entry["value"]
                cumulative = 0
                for bound, count in zip(bounds, cell["buckets"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_prom_labels(labels, {'le': _format_number(bound)})}"
                        f" {cumulative}")
                lines.append(
                    f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})}"
                    f" {cell['count']}")
                lines.append(f"{name}_sum{_prom_labels(labels)}"
                             f" {_format_number(cell['sum'])}")
                lines.append(f"{name}_count{_prom_labels(labels)}"
                             f" {cell['count']}")
        else:
            for entry in data["values"]:
                lines.append(
                    f"{name}{_prom_labels(entry['labels'])}"
                    f" {_format_number(entry['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


_PARENT_TID = 0


def to_chrome_trace(tracer: Union[Tracer, Sequence[Span]]
                    ) -> Dict[str, Any]:
    """The span trees as a Chrome trace-event JSON object.

    Every closed span becomes one complete event (``"ph": "X"``) with
    microsecond ``ts``/``dur``; still-open spans are emitted with
    ``dur`` 0 and ``"open": true`` in their args.  Timestamps are
    shifted so the earliest span starts at 0 (Perfetto dislikes raw
    monotonic epochs).  A subtree whose root carries a ``shard``
    attribute — how :meth:`Tracer.graft` tags worker spans — is placed
    on thread id ``shard + 1`` and the track is named ``shard N`` via
    ``thread_name`` metadata; everything else lives on the parent
    track (tid 0).
    """
    roots = tracer.roots if isinstance(tracer, Tracer) else list(tracer)
    starts = [node.start for root in roots
              for _depth, node in root.walk()]
    origin = min(starts, default=0.0)
    events: List[Dict[str, Any]] = []
    tids: Dict[int, str] = {_PARENT_TID: "parent"}

    def walk(node: Span, tid: int) -> None:
        if "shard" in node.attrs:
            tid = int(node.attrs["shard"]) + 1
            tids.setdefault(tid, f"shard {node.attrs['shard']}")
        args = dict(node.attrs)
        if node.end is None:
            args["open"] = True
        event = {
            "name": node.name,
            "ph": "X",
            "ts": round((node.start - origin) * 1e6, 3),
            "dur": round(node.duration * 1e6, 3),
            "pid": 0,
            "tid": tid,
        }
        if args:
            event["args"] = args
        events.append(event)
        for child in node.children:
            walk(child, tid)

    for root in roots:
        walk(root, _PARENT_TID)
    metadata = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
         "args": {"name": label}}
        for tid, label in sorted(tids.items())
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path],
                       tracer: Optional[Tracer] = None) -> None:
    """Write the tracer's Chrome trace JSON to ``path``."""
    from .trace import get_tracer  # late: default to the live tracer
    payload = to_chrome_trace(tracer if tracer is not None
                              else get_tracer())
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
