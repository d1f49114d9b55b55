"""Warm-start snapshots of the simulated control plane.

A C-cycle campaign sharded S ways makes every worker rebuild its
starting state by replaying cycles ``1..first-1``
(:meth:`~repro.sim.ark.ArkSimulator.fast_forward`) — O(C²) aggregate
replay before the first probe.  The :class:`StateStore` removes that
wall: full :meth:`~repro.sim.network.Internet.capture_state` snapshots
are persisted every ``snapshot_stride`` cycles, and anyone needing the
state *after* cycle N loads the nearest snapshot ≤ N and replays only
the tail — near-O(1) in campaign length once the store is warm
(DESIGN §10).

One rule fills it: **the process that runs a cycle persists it**.  A
pool worker or the in-process executor saves each stride cycle's
snapshot right after the cycle unless a verified one is there, so an
interrupted ``repro study --state-dir DIR`` resumes warm.  Readers
restore the nearest snapshot ≤ the cycle they must reach: a **pool
worker** only among those listed when its run planned the shards, so
sibling timing never matters (a first run's late shards replay cold, a
repeated run warm-starts); the **pool parent**, after the pool, for
the campaign's end state; the **in-process executor** across cycles
restored from checkpoints — which are never run, so one without a
snapshot stays without one.

The trust model is the shared :class:`~repro.par.store.ContentStore`
(``<state-dir>/<spec-hash>/state-<cycle>.snap``, counters
``state_snapshot_*``, events ``snapshot.*``).  A corrupt, foreign-spec
or wrong-version snapshot is *rejected* — the search falls back to the
next older snapshot, and ultimately to a cold replay — and the next
writer replaces it.

Snapshots are pure control-plane state (DESIGN §6: probing never
mutates the network), so a warm-started run is byte-identical to a
replayed one — results, artifacts, checkpoints and end-state
fingerprints alike (asserted in ``tests/test_statestore.py``).
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .store import ContentStore

STATE_VERSION = 1
"""Bumped when the snapshot container shape changes; old files are then
rejected (reason ``version``) instead of mis-read."""

_FILE_PATTERN = re.compile(r"^state-(\d{4})\.snap$")


class StateStore(ContentStore):
    """Loads and saves control-plane snapshots under one spec's dir."""

    KIND = "snapshot"
    METRIC = "state_snapshot"
    VERSION = STATE_VERSION
    VERSION_FIELD = "state_version"
    PATTERN = "state-{:04d}.snap"
    NOUN = "Control-plane snapshot"

    def cycles(self) -> List[int]:
        """Cycles with a snapshot file on disk, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for name in os.listdir(self.directory):
            match = _FILE_PATTERN.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def save(self, cycle: int, state) -> Path:
        """Atomically persist one snapshot; returns its path."""
        return self._write(cycle, self._encode(cycle, state=state))

    def load(self, cycle: int):
        """One cycle's verified state, or None (missing or rejected)."""
        payload = self._read(cycle)
        return None if payload is None else payload["state"]

    def load_nearest(self, target: int, after: int = 0,
                     listed: Optional[Sequence[int]] = None
                     ) -> Optional[Tuple[int, object]]:
        """The newest usable snapshot in ``(after, target]``.

        Returns ``(cycle, state)``; candidates are tried newest-first,
        so a rejected file degrades the warm start instead of failing
        it.  ``after`` lets a mid-run caller skip snapshots at or
        before its current position; ``listed`` (ascending) replaces
        the files on disk as the candidates, for a caller that must not
        see snapshots written since it listed them.  A fruitless search
        counts one miss (a cold replay will follow).
        """
        for cycle in reversed(self.cycles() if listed is None
                              else listed):
            if cycle > target or cycle <= after:
                continue
            state = self.load(cycle)
            if state is not None:
                self._record("hit", cycle=cycle, target=target,
                             saved=cycle - after)
                return cycle, state
        self._record("miss", target=target)
        return None

    def _usable(self, payload: Dict[str, Any]) -> bool:
        return payload.get("state") is not None


state_spec_hash = StateStore.hash_spec
"""Content hash naming one spec's snapshot directory; the state format
versions independently of checkpoints, so their directories do too."""
