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

Three parties share one store:

* the **pool parent** seeds it while advancing its own end-state
  simulator (writing any stride snapshot that does not verify), so
  even a first run's late shards warm-start;
* **workers** load the nearest snapshot ≤ their shard's first cycle
  and replay only the remainder;
* the **in-process executor** writes snapshots as it runs, so an
  interrupted ``repro study --state-dir DIR`` resumes warm.

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
from typing import Any, Dict, List, Optional, Tuple

from .store import ContentStore

STATE_VERSION = 1
"""Bumped when the snapshot container shape changes; old files are then
rejected (reason ``version``) instead of mis-read."""

DEFAULT_SNAPSHOT_STRIDE = 8
"""Cycles between snapshots.  Smaller strides cut tail replay, larger
strides cut disk and capture time; 8 keeps the worst-case tail under
one stride while a 60-cycle campaign stores only 7 snapshots."""

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

    def load_nearest(self, target: int, after: int = 0
                     ) -> Optional[Tuple[int, object]]:
        """The newest usable snapshot in ``(after, target]``.

        Returns ``(cycle, state)``; candidates are tried newest-first,
        so a rejected file degrades the warm start instead of failing
        it.  ``after`` lets a mid-run caller skip snapshots at or
        before its current position.  A fruitless search counts one
        miss (a cold replay will follow).
        """
        for cycle in reversed(self.cycles()):
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
