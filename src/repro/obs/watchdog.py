"""Heartbeat-deadline stall detection for sharded studies.

A worker that deadlocks, spins on a pathological cycle or blocks on a
dead filesystem looks *exactly* like a slow worker from the parent's
``wait()`` loop — it just never returns.  :class:`StallWatchdog` turns
the existing heartbeat stream into liveness: the runner registers each
dispatched shard, records every heartbeat, and periodically asks
:meth:`check` which shards have been silent past the deadline.

Deadlines are judged against an injectable
:class:`~repro.obs.trace.Clock` (tests drive a
:class:`~repro.obs.trace.FakeClock`; production uses a monotonic one),
and the whole mechanism is **off by default** — the runner only builds
a watchdog when a ``stall_timeout`` is passed, so the DESIGN §6 rule
stands: the library never reads the wall clock unless the caller opts
in.  Flagging is observational: the shard keeps running, the runner
emits ``shard.stalled`` and bumps ``par_shards_stalled_total`` (the
``/healthz`` monitor subscribes to the event); if the worker later
beats or completes, the shard is *recovered* (``shard.recovered``)
and health clears.  A shard that
never recovers still ends in the existing retry-and-split machinery
once its worker dies or the pool breaks — the watchdog makes the wait
visible, it does not kill workers.

A registered shard's deadline starts at its **first heartbeat**, not at
submission: workers beat once on entry, so a queued shard waiting for a
pool slot is not "stalled", while a worker wedged before its first
cycle is caught.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set

from .trace import Clock, MonotonicClock


class StallWatchdog:
    """Flags shards whose heartbeats go silent past a deadline."""

    def __init__(self, timeout: float, clock: Optional[Clock] = None):
        if timeout <= 0:
            raise ValueError(f"stall timeout must be > 0: {timeout}")
        self.timeout = float(timeout)
        self.clock = clock or MonotonicClock()
        # shard -> last heartbeat time; None until the first beat.
        self._last: Dict[Any, Optional[float]] = {}
        self._stalled: Set[Any] = set()

    @property
    def stalled(self) -> FrozenSet[Any]:
        """Shards currently flagged as stalled."""
        return frozenset(self._stalled)

    def watch(self, shard_id: Any) -> None:
        """Register a dispatched shard (deadline armed on first beat)."""
        self._last.setdefault(shard_id, None)

    def beat(self, shard_id: Any) -> bool:
        """Record one heartbeat; True when it recovers a flagged shard."""
        if shard_id not in self._last:
            return False
        self._last[shard_id] = self.clock.now()
        if shard_id in self._stalled:
            self._stalled.discard(shard_id)
            return True
        return False

    def clear(self, shard_id: Any) -> bool:
        """Deregister a finished/failed shard; True if it was flagged."""
        self._last.pop(shard_id, None)
        if shard_id in self._stalled:
            self._stalled.discard(shard_id)
            return True
        return False

    def check(self) -> List[Any]:
        """Shards newly past the deadline (each reported only once)."""
        now = self.clock.now()
        fresh = sorted(
            shard_id
            for shard_id, last in self._last.items()
            if last is not None and shard_id not in self._stalled
            and now - last > self.timeout
        )
        self._stalled.update(fresh)
        return fresh
