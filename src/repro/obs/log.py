"""Log lines: a formatting sink of the event bus.

The library does not log by itself; it emits events
(:mod:`repro.obs.events`).  :func:`configure` subscribes one formatter
to the bus that prints every event at or above a level on a stream,
as a human-readable line or a JSON object::

    12:04:31 INFO    cycle.done cycle=12 traces=2381 iotps=41
    {"ts": 1760000671.2, "level": "info", "event": "cycle.done",
     "seq": 7, "cycle": 12, "traces": 2381, "iotps": 41}

One table (:data:`KIND_LEVELS`, read by :func:`level_of`) gives each
event kind its level: warnings for rejected store files, retries,
failures, stalls, verify findings and skipped archive records; debug
for the high-rate kinds; info for the rest.

Nothing is printed until :func:`configure` runs; the CLI calls it
from its global ``--log-level`` / ``--log-json`` flags.  The sink is a
*carried* subscriber, so it follows the process-wide bus when
``--events-out`` swaps in a new one, and because pool workers forward
their events to the parent bus, worker facts are logged by the parent
under ``fork`` and ``spawn`` alike.  Embedders that want another
format subscribe their own callback to the bus instead.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, IO, Optional

from .events import Event, get_event_bus

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

KIND_LEVELS: Dict[str, str] = {
    "shard.retry": "warning",
    "shard.failed": "warning",
    "shard.stalled": "warning",
    "verify.divergence": "warning",
    "verify.violation": "warning",
    "warts.record.skipped": "warning",
    "shard.heartbeat": "debug",
    "worker.resources": "debug",
    "cache.flush": "debug",
    "cycle.metrics": "debug",
}
"""Every event kind whose level is not ``info``.  Any ``*.rejected``
kind (an unusable checkpoint or state snapshot) is a warning too."""

_unsubscribe: Optional[Callable[[], None]] = None


def level_of(kind: str) -> str:
    """The log level of one event kind."""
    if kind.endswith(".rejected"):
        return "warning"
    return KIND_LEVELS.get(kind, "info")


def _format_value(value: Any) -> str:
    """Render one field value for the key=value format."""
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if " " in text or "=" in text or '"' in text:
        return json.dumps(text)
    return text


def format_key_value(event: Event, level: str) -> str:
    """``HH:MM:SS LEVEL kind key=value ...``"""
    head = f"{time.strftime('%H:%M:%S')} {level.upper():<7} {event.kind}"
    pairs = " ".join(f"{key}={_format_value(value)}"
                     for key, value in event.fields.items())
    return f"{head} {pairs}" if pairs else head


def format_json(event: Event, level: str) -> str:
    """One JSON object: ts, level, event, seq, then the fields."""
    payload: Dict[str, Any] = {"ts": round(time.time(), 6),
                               "level": level, "event": event.kind,
                               "seq": event.seq}
    payload.update(event.fields)
    return json.dumps(payload, default=str)


def configure(level: str = "info", json_output: bool = False,
              stream: Optional[IO[str]] = None) -> Callable[[], None]:
    """Subscribe the log formatter to the process-wide bus.

    Replaces the sink a previous call installed, so the CLI (and
    tests) can call it repeatedly.  ``stream`` defaults to whatever
    ``sys.stderr`` is at write time.  Returns the unsubscribe function.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown log level {level!r}; "
                         f"expected one of {sorted(_LEVELS)}")
    global _unsubscribe
    if _unsubscribe is not None:
        _unsubscribe()
    threshold = _LEVELS[level]
    render = format_json if json_output else format_key_value

    def sink(event: Event) -> None:
        event_level = level_of(event.kind)
        if _LEVELS[event_level] >= threshold:
            (stream or sys.stderr).write(render(event, event_level)
                                         + "\n")

    _unsubscribe = get_event_bus().subscribe(sink, carry=True)
    return _unsubscribe
