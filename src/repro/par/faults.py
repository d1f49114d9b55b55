"""Test-only fault injection hooks for the study runner.

Real campaigns die in ways a unit test can't trigger naturally: a worker
process OOM-killed mid-shard, a transient exception deep in one cycle, a
checkpoint file half-written by a crashed parent.  This module gives
tests a deterministic way to stage those deaths so the recovery paths in
:mod:`repro.par.runner` stay exercised (``tests/test_par_faults.py``,
run as its own CI step).

A :class:`FaultPlan` maps a **cycle** (stable across worker counts,
unlike shard ids) to a :class:`ShardFault` saying how to fail: the
fault fires when any executor — a pool worker or the in-process loop —
is about to run that cycle, on the attempts it lists.  Plans are plain
frozen dataclasses so they pickle into worker processes; production
runs simply pass no plan, and the hook costs one ``is None`` check per
cycle.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Mapping, Tuple

KILL = "kill"
"""Terminate the worker process abruptly (``os._exit``) — what an
OOM-kill or segfault looks like from the parent: a broken pool."""

RAISE = "raise"
"""Raise :class:`FaultInjected` inside the worker — an ordinary
per-shard exception travelling back through the future."""

HANG = "hang"
"""Stop making progress for ``hang_seconds`` (the worker sleeps, then
carries on) — what a wedged syscall or a pathological cycle looks like
to the heartbeat watchdog.  Unlike KILL/RAISE the shard eventually
completes, so the drill exercises the stall -> recovered path."""


class FaultInjected(RuntimeError):
    """The exception an injected ``RAISE`` fault throws."""


@dataclass(frozen=True)
class ShardFault:
    """One staged failure.

    ``attempts`` gates firing on the runner's retry counter, so a fault
    that fires on attempt 0 only lets the retry succeed.  In-process
    shards never retry: they always run attempt 0.
    """

    kind: str
    attempts: Tuple[int, ...] = (0,)
    hang_seconds: float = 1.0
    """How long a ``HANG`` fault stays silent before resuming."""

    def __post_init__(self):
        if self.kind not in (KILL, RAISE, HANG):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.hang_seconds < 0:
            raise ValueError(
                f"negative hang_seconds: {self.hang_seconds}")

    def fire(self) -> None:
        if self.kind == HANG:
            time.sleep(self.hang_seconds)
            return
        if self.kind == KILL:
            os._exit(43)
        raise FaultInjected(
            f"injected worker failure (attempts {self.attempts})")


@dataclass(frozen=True)
class FaultPlan:
    """Which cycles fail, keyed by cycle."""

    by_cycle: Mapping[int, ShardFault] = field(default_factory=dict)

    def maybe_fire(self, cycle: int, attempt: int) -> None:
        """Fire the cycle's fault iff this attempt is staged."""
        fault = self.by_cycle.get(cycle)
        if fault is not None and attempt in fault.attempts:
            fault.fire()
