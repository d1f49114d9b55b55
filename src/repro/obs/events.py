"""The study flight recorder: an append-only event bus.

Long campaigns need a durable record of *what happened when* — shards
dispatched, retried and completed, checkpoints hit, caches flushed,
cycles finished — that survives a crash and can be replayed afterwards
(``repro report``).  The bus collects :class:`Event` records in memory
and, when a *sink* is attached (the CLI's ``--events-out FILE``),
appends each one as a JSON line the moment it is emitted, flushing per
line so a killed run loses at most the event in flight.

Determinism (DESIGN §6)
-----------------------

Every event carries a **logical sequence number** (``seq``, starting at
1, strictly increasing per bus).  Wall timestamps are only recorded
when the bus carries a real :class:`~repro.obs.trace.Clock` — the
default is a :class:`~repro.obs.trace.NullClock`, under which the
``ts`` field is omitted entirely, so a default run never reads the
clock and a sinked events file from a serial run is byte-reproducible.
The CLI swaps in a :class:`~repro.obs.trace.MonotonicClock` only when
the user also opted into wall-clock observability (``--progress``,
``--profile`` or ``--trace-out``).

Usage mirrors the tracer: a process-wide bus behind
:func:`get_event_bus`/:func:`set_event_bus`, and a module-level
:func:`emit` that instrumented code calls::

    emit("shard.retry", shard=3, attempt=2, error="BrokenProcessPool")

The bus is the one channel for a run's facts.  Every consumer —
progress tracker, health monitor, resource gauges, log formatter —
is a subscriber (:meth:`EventBus.subscribe`) that sees each event as
it is emitted.  Pool workers install a bus that forwards each event
to the parent (:mod:`repro.par.runner`), which re-emits it on its
own bus, so a forked sink file descriptor is never written from two
processes and the parent assigns every ``seq`` and ``ts``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from .trace import Clock, NullClock

_RESERVED = frozenset({"seq", "kind", "ts"})

DEFAULT_KEEP = 65536
"""In-memory events retained per bus (a ring; the sink gets them all)."""


@dataclass(frozen=True)
class Event:
    """One flight-recorder record.

    ``ts`` is monotonic seconds and is None when the bus ran on a
    :class:`NullClock`; ``fields`` are the emitter's keyword payload.
    """

    seq: int
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)
    ts: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"seq": self.seq, "kind": self.kind}
        if self.ts is not None:
            data["ts"] = round(self.ts, 6)
        data.update(self.fields)
        return data


def event_from_dict(data: Dict[str, Any]) -> Event:
    """Rebuild an :class:`Event` from one parsed JSONL row."""
    payload = dict(data)
    seq = payload.pop("seq")
    kind = payload.pop("kind")
    ts = payload.pop("ts", None)
    return Event(seq=seq, kind=kind, fields=payload, ts=ts)


Subscriber = Callable[[Event], None]


class EventBus:
    """Append-only event collector with an optional JSONL sink.

    ``clock=None`` (the default :class:`NullClock`) keeps the bus free
    of wall-clock reads; ``sink`` is a path or text stream that
    receives one flushed JSON line per event.  The last
    :data:`DEFAULT_KEEP` events stay readable in memory via
    :attr:`events` whether or not a sink is attached, and every
    subscriber is called with each event, in subscription order.
    """

    def __init__(self, clock: Optional[Clock] = None,
                 sink: Union[str, Path, IO[str], None] = None,
                 keep: int = DEFAULT_KEEP):
        self.clock = clock or NullClock()
        self._seq = 0
        self._events: Deque[Event] = deque(maxlen=keep)
        self._stream: Optional[IO[str]] = None
        self._owns_stream = False
        self._subscribers: List[Tuple[Subscriber, bool]] = []
        self.sink_path: Optional[Path] = None
        if sink is not None:
            if isinstance(sink, (str, Path)):
                self.sink_path = Path(sink)
                self._stream = open(self.sink_path, "w",
                                    encoding="utf-8")
                self._owns_stream = True
            else:
                self._stream = sink

    @property
    def events(self) -> List[Event]:
        """The retained in-memory events, oldest first."""
        return list(self._events)

    @property
    def timed(self) -> bool:
        """Whether emitted events carry wall timestamps."""
        return not isinstance(self.clock, NullClock)

    def subscribe(self, callback: Subscriber, *,
                  carry: bool = False) -> Callable[[], None]:
        """Call ``callback(event)`` for every later event; returns the
        matching unsubscribe function.

        ``carry=True`` marks a process-wide consumer (the log sink):
        :func:`set_event_bus` moves it onto the replacement bus, so it
        survives ``--events-out`` swapping the bus, and its unsubscribe
        function detaches it from whichever bus is global by then.
        """
        # Copy-on-write, so emit() iterates a list nobody mutates.
        self._subscribers = self._subscribers + [(callback, carry)]
        if carry:
            return lambda: get_event_bus().unsubscribe(callback)
        return lambda: self.unsubscribe(callback)

    def unsubscribe(self, callback: Subscriber) -> None:
        """Detach ``callback`` (a no-op when it is not subscribed)."""
        self._subscribers = [entry for entry in self._subscribers
                             if entry[0] is not callback]

    def emit(self, kind: str, /, **fields: Any) -> Event:
        """Record one event; returns it (mostly for tests).

        ``kind`` is positional-only so a payload field may not shadow
        it; the other reserved keys are rejected explicitly.
        """
        clash = _RESERVED.intersection(fields)
        if clash:
            raise ValueError(f"event field(s) {sorted(clash)} shadow "
                             f"reserved flight-recorder keys")
        self._seq += 1
        event = Event(
            seq=self._seq,
            kind=kind,
            fields=fields,
            ts=self.clock.now() if self.timed else None,
        )
        self._events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(event.to_dict(),
                                          default=str) + "\n")
            self._stream.flush()
        for callback, _carry in self._subscribers:
            callback(event)
        return event

    def reset(self) -> None:
        """Drop the in-memory events and restart sequence numbering.

        The sink (if any) keeps everything already written — the
        flight recorder never un-records.
        """
        self._events.clear()
        self._seq = 0

    def close(self) -> None:
        """Flush and close an owned sink stream (idempotent)."""
        if self._stream is not None and self._owns_stream:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> List[Event]:
    """Load a flight-recorder JSONL file back into :class:`Event`\\ s.

    Blank lines are skipped; a malformed line raises ``ValueError``
    naming its line number, so a truncated final line (crash mid-write)
    is reported rather than silently dropped.
    """
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as error:
                raise ValueError(
                    f"{path}:{number}: bad flight-recorder line: "
                    f"{error}") from error
    return events


def iter_kind(events: Iterator[Event], kind: str) -> List[Event]:
    """The sub-list of ``events`` with one ``kind``, in order."""
    return [event for event in events if event.kind == kind]


_bus = EventBus()


def get_event_bus() -> EventBus:
    """The process-wide bus the instrumented library emits into."""
    return _bus


def set_event_bus(bus: EventBus, carry: bool = True) -> EventBus:
    """Replace the global bus (e.g. to attach a sink); returns it.

    Carried subscribers move from the old bus to ``bus``; a pool
    worker passes ``carry=False`` so a log sink inherited over
    ``fork`` never prints from the worker (the parent logs the
    forwarded events instead).
    """
    global _bus
    if carry and bus is not _bus:
        carried = [entry for entry in _bus._subscribers if entry[1]]
        _bus._subscribers = [entry for entry in _bus._subscribers
                             if not entry[1]]
        bus._subscribers = bus._subscribers + carried
    _bus = bus
    return bus


def emit(kind: str, /, **fields: Any) -> Event:
    """Emit one event against the *current* global bus."""
    return _bus.emit(kind, **fields)
