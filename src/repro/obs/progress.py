"""Live study progress: heartbeat aggregation, ETA, one-line rendering.

A sharded study is a black box without this: workers probe for minutes
before their shard returns.  :class:`ProgressTracker` is an event-bus
subscriber (:meth:`ProgressTracker.on_event`): it learns the plan from
``study.start``/``study.plan``, folds the per-shard ``shard.heartbeat``
events (cycles done, traces simulated — forwarded from pool workers
like every other worker event) into campaign-level totals, and derives
an ETA from the completed-work rate.

The displayed work counter is **monotonically non-decreasing**: stale
or duplicate heartbeats are folded with ``max``, and when a failed
shard is abandoned for retry its partial progress stays on the high
water mark (the work is redone, but a progress line must never move
backwards).

Wall-clock use is opt-in, as everywhere in :mod:`repro.obs`: the
tracker only computes elapsed time / ETA when built with a real
:class:`~repro.obs.trace.Clock` (the CLI's ``--progress`` passes a
:class:`~repro.obs.trace.MonotonicClock`; tests pass a
:class:`~repro.obs.trace.FakeClock`).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, IO, Optional

from .events import Event
from .trace import Clock, NullClock


@dataclass
class ShardProgress:
    """Aggregated heartbeat state of one shard."""

    shard_id: int
    work: float
    """Cycle-units this shard covers (its cycle count)."""
    work_done: float = 0.0
    traces: int = 0
    done: bool = False
    abandoned: bool = False


class ProgressTracker:
    """Campaign-level progress derived from per-shard heartbeats."""

    def __init__(self, total_cycles: int = 0,
                 clock: Optional[Clock] = None):
        self.total_cycles = total_cycles
        self.clock = clock or NullClock()
        self.shards: Dict[int, ShardProgress] = {}
        self._start = self.clock.now()
        self._high_water = 0.0
        self._restored = 0.0
        # Mutations come from the runner's thread, reads also from the
        # telemetry server's handler threads; reentrant because
        # on_event folds through the locked methods below.
        self._lock = threading.RLock()

    # -- bus subscriber ------------------------------------------------------

    def on_event(self, event: Event) -> bool:
        """Fold one bus event in; True when it moved the work done
        (a heartbeat or a finished shard), i.e. worth re-rendering.

        ``study.plan`` carries the restored cycle count and each
        planned shard's ``[first, last]`` (shard ids are plan
        positions); subdivided children register when dispatched.
        """
        fields, kind = event.fields, event.kind
        with self._lock:
            if kind == "shard.heartbeat":
                self.heartbeat(fields["shard"], fields["cycles_done"],
                               fields["traces"])
                return True
            if kind == "shard.done":
                self.shard_done(fields["shard"])
                return True
            if kind == "shard.dispatch":
                if fields["shard"] not in self.shards:
                    self.add_shard(fields["shard"], _work(
                        fields["first"], fields["last"]))
            elif kind == "shard.subdivided":
                self.abandon_shard(fields["parent"])
            elif kind == "study.plan":
                self.add_restored(fields["restored"])
                for shard_id, (first, last) in enumerate(
                        fields["ranges"]):
                    self.add_shard(shard_id, _work(first, last))
            elif kind == "study.start":
                self.total_cycles = fields["cycles"]
                self._start = self.clock.now()
            return False

    # -- shard registry ------------------------------------------------------

    def add_shard(self, shard_id: int, work: float) -> None:
        """Register one shard's share of the campaign (cycle units)."""
        with self._lock:
            self.shards[shard_id] = ShardProgress(shard_id=shard_id,
                                                  work=work)

    def add_restored(self, cycles: float) -> None:
        """Count cycles restored from a checkpoint before planning:
        finished work that belongs to no shard."""
        with self._lock:
            self._restored += cycles
            self._advance()

    def abandon_shard(self, shard_id: int) -> None:
        """Mark a failed shard: its work will be redone elsewhere."""
        with self._lock:
            progress = self.shards.get(shard_id)
            if progress is not None and not progress.done:
                progress.abandoned = True

    # -- updates -------------------------------------------------------------

    def heartbeat(self, shard_id: int, cycles_done: float = 0,
                  traces: int = 0) -> None:
        """Fold one worker heartbeat in (monotonic per shard)."""
        with self._lock:
            progress = self.shards.get(shard_id)
            if progress is None:
                return
            progress.work_done = min(
                progress.work, max(progress.work_done, float(cycles_done)))
            progress.traces = max(progress.traces, traces)
            self._advance()

    def shard_done(self, shard_id: int) -> None:
        with self._lock:
            progress = self.shards.get(shard_id)
            if progress is None:
                return
            progress.done = True
            progress.abandoned = False
            progress.work_done = progress.work
            self._advance()

    def _advance(self) -> None:
        live = self._restored + sum(p.work_done
                                    for p in self.shards.values()
                                    if not p.abandoned)
        self._high_water = max(self._high_water, live)

    # -- derived totals ------------------------------------------------------

    @property
    def work_done(self) -> float:
        """Completed cycle-units (high-water, never decreases)."""
        return min(float(self.total_cycles), self._high_water)

    @property
    def traces(self) -> int:
        return sum(p.traces for p in self.shards.values())

    @property
    def shards_done(self) -> int:
        return sum(1 for p in self.shards.values() if p.done)

    @property
    def shards_total(self) -> int:
        return sum(1 for p in self.shards.values() if not p.abandoned)

    @property
    def fraction(self) -> float:
        if self.total_cycles <= 0:
            return 1.0
        return self.work_done / self.total_cycles

    def elapsed(self) -> float:
        return self.clock.now() - self._start

    def eta_seconds(self) -> Optional[float]:
        """Remaining seconds from the completed-work rate, or None.

        None until any work completed, or under a :class:`NullClock`
        (no elapsed time to rate against).
        """
        elapsed = self.elapsed()
        if elapsed <= 0 or self.work_done <= 0:
            return None
        rate = self.work_done / elapsed
        return (self.total_cycles - self.work_done) / rate

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of the whole campaign (thread-safe).

        What the live ``/progress`` endpoint serves: campaign totals,
        elapsed/ETA (the ``eta`` key is None until any work completed
        or under a :class:`NullClock`), and every shard's high-water
        progress.
        """
        with self._lock:
            eta = self.eta_seconds()
            return {
                "total_cycles": self.total_cycles,
                "work_done": self.work_done,
                "fraction": round(self.fraction, 6),
                "traces": self.traces,
                "shards_done": self.shards_done,
                "shards_total": self.shards_total,
                "elapsed_s": round(self.elapsed(), 6),
                "eta": round(eta, 6) if eta is not None else None,
                "shards": [
                    {"shard": p.shard_id, "work": p.work,
                     "work_done": p.work_done, "traces": p.traces,
                     "done": p.done,
                     "abandoned": p.abandoned}
                    for p in sorted(self.shards.values(),
                                    key=lambda p: p.shard_id)
                ],
            }

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """One status line, e.g.
        ``cycles 12.0/60 (20%) | shards 2/6 | traces 123456 | eta 42s``.
        """
        eta = self.eta_seconds()
        eta_text = _format_seconds(eta) if eta is not None else "--"
        return (f"cycles {self.work_done:g}/{self.total_cycles} "
                f"({self.fraction:.0%}) | "
                f"shards {self.shards_done}/{self.shards_total} | "
                f"traces {self.traces} | eta {eta_text}")


def _work(first: int, last: int) -> float:
    """Cycle-units of the inclusive cycle range ``first..last``."""
    return float(last - first + 1)


def _format_seconds(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, rest = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{rest:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressPrinter:
    """Renders a tracker as a live status line, terminal-aware.

    On a TTY each update redraws one self-overwriting line (``\\r``,
    padded to the previous render's width so a shrinking status never
    leaves stale characters behind).  When the stream is **not** a TTY
    — a CI log, a pipe, a redirected file — carriage returns would
    smear every redraw onto one unreadable mega-line, so updates are
    plain newline-terminated lines instead, de-duplicated so an idle
    study does not flood the log.

    :meth:`finish` always leaves a final summary as the last complete
    line (call it before printing anything else).
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream or sys.stderr
        isatty = getattr(self.stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False
        self._last_width = 0
        self._last_line: Optional[str] = None
        self._tracker: Optional[ProgressTracker] = None
        self._dirty = False

    def update(self, tracker: ProgressTracker) -> None:
        self._tracker = tracker
        line = tracker.render()
        if self._tty:
            self.stream.write("\r" + line.ljust(self._last_width))
            self._last_width = len(line)
            self._dirty = True
        else:
            if line == self._last_line:
                return
            self.stream.write(line + "\n")
        self._last_line = line
        self.stream.flush()

    def finish(self) -> None:
        """End the status display with a final summary line."""
        if self._tracker is not None:
            line = self._tracker.render()
            if self._tty:
                self.stream.write(
                    "\r" + line.ljust(self._last_width) + "\n")
                self._dirty = False
            elif line != self._last_line:
                self.stream.write(line + "\n")
            self._last_line = line
            self._tracker = None
            self.stream.flush()
        elif self._tty and self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
