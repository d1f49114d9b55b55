"""Span tracing: hierarchical wall-time accounting for the pipeline.

A *span* is a named interval with attributes and children::

    with span("filters.persistence", cycle=45):
        ...

Spans nest naturally — a span opened while another is active becomes its
child — so one ``study`` run produces a trace tree whose per-stage
totals the CLI renders as the ``--profile`` table.

Clock injection (DESIGN §6)
---------------------------

The library must stay deterministic: no wall-clock reads by default.
The module-level tracer therefore starts with a :class:`NullClock`
(every span lasts 0.0s and ``time.monotonic`` is never called); spans
still record structure and counts, just not durations.  Profiling
callers swap in a real clock::

    set_tracer(Tracer(MonotonicClock()))

and tests use :class:`FakeClock` to get exact, reproducible durations.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)


class Clock:
    """Monotonic-seconds source; subclasses override :meth:`now`."""

    def now(self) -> float:
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real wall clock (``time.monotonic``) — profiling runs only."""

    def now(self) -> float:
        return time.monotonic()


class NullClock(Clock):
    """Always 0.0: structure without timing, no wall-clock reads."""

    def now(self) -> float:
        return 0.0


class FakeClock(Clock):
    """A manually advanced clock for deterministic tests."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance backwards: {seconds}")
        self._now += seconds


@dataclass
class Span:
    """One node of the trace tree."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)
    grafted: bool = False
    """Set on a root :meth:`Tracer.graft` attached: it ran in another
    process, concurrently with its new parent."""

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time spent in in-process child spans.

        Grafted children ran concurrently in workers, so subtracting
        them could drive a parallel study's self time negative.
        """
        return self.duration - sum(c.duration for c in self.children
                                   if not c.grafted)

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (depth, span) pairs, self first."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.end is None:
            # Explicitly flagged rather than silently serialized as a
            # zero-duration span (the dict consumer must not mistake an
            # interrupted stage for an instantaneous one).
            data["open"] = True
        else:
            data["duration_s"] = round(self.duration, 9)
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    worker_s: float = 0.0
    """The part of ``total_s`` spent inside grafted worker subtrees."""

    @property
    def parent_s(self) -> float:
        return self.total_s - self.worker_s

    @property
    def mean_ms(self) -> float:
        return self.total_s / self.count * 1000.0 if self.count else 0.0


class Tracer:
    """Builds the span tree; usable as context manager or decorator."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or NullClock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the currently active one."""
        node = Span(name=name, attrs=attrs, start=self.clock.now())
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.end = self.clock.now()
            # A reset() between open and close empties the stack; the
            # orphaned span just closes without popping anything.
            if self._stack and self._stack[-1] is node:
                self._stack.pop()

    def traced(self, name: str, **attrs: Any) -> Callable:
        """Decorator form of :meth:`span`."""
        def decorate(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name, **attrs):
                    return function(*args, **kwargs)
            return wrapper
        return decorate

    @property
    def active(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        """Drop every recorded span, including any still open.

        The stack is cleared too: spans opened before the reset become
        orphans whose exits are no-ops, instead of silently appending
        children into a discarded tree.
        """
        self.roots = []
        self._stack = []

    def graft(self, roots: Sequence[Span], **attrs: Any) -> None:
        """Attach foreign span trees under the currently active span.

        This is how a parallel study accounts for time spent *inside*
        workers: each shard returns its tracer roots, and the parent
        grafts them — tagged with ``attrs`` (e.g. ``shard=3``) merged
        into each root's attributes and marked :attr:`Span.grafted` —
        as children of the innermost open span (new roots when none is
        open).
        """
        target = (self._stack[-1].children if self._stack
                  else self.roots)
        for root in roots:
            if attrs:
                root.attrs.update(attrs)
            root.grafted = True
            target.append(root)

    def totals(self) -> List[SpanTotals]:
        """Per-name aggregates in first-seen (tree) order; spans at or
        under a grafted root count as worker time."""
        by_name: Dict[str, SpanTotals] = {}
        stack = [(root, root.grafted) for root in reversed(self.roots)]
        while stack:
            node, remote = stack.pop()
            aggregate = by_name.setdefault(node.name,
                                           SpanTotals(name=node.name))
            aggregate.count += 1
            aggregate.total_s += node.duration
            aggregate.self_s += node.self_time
            if remote:
                aggregate.worker_s += node.duration
            stack.extend((child, remote or child.grafted)
                         for child in reversed(node.children))
        return list(by_name.values())

    def to_dict(self) -> List[Dict[str, Any]]:
        return [root.to_dict() for root in self.roots]


_tracer = Tracer(NullClock())


def get_tracer() -> Tracer:
    """The process-wide tracer the instrumented library reports to."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the global tracer (e.g. with a monotonic one); returns it."""
    global _tracer
    _tracer = tracer
    return tracer


def span(name: str, **attrs: Any):
    """``with span("stage", cycle=3):`` against the global tracer."""
    return _tracer.span(name, **attrs)


def traced(name: str, **attrs: Any) -> Callable:
    """Decorator against the *current* global tracer at call time."""
    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with _tracer.span(name, **attrs):
                return function(*args, **kwargs)
        return wrapper
    return decorate
