"""Per-cycle checkpointing for restartable studies.

A multi-hour campaign must not lose everything to one crash near the
end.  Each finished cycle's :class:`~repro.core.pipeline.CycleResult`
and its metrics delta are persisted as soon as they exist; a restarted
study looks every cycle up once, restores the hits and runs only the
cycles still missing.  Because every cycle is a pure function of
``(StudySpec, cycle)`` (DESIGN §6/§8), a resumed run is byte-identical
to an uninterrupted one.

Layout: ``<checkpoint-dir>/<spec-hash>/cycle-<NNNN>.ckpt`` holds one
cycle, whoever computed it — the in-process executor or a pool worker.
The key names no worker layout, so any layout resumes from any other,
and the bytes do not depend on the layout either: the process that ran
a cycle encodes its entry (:meth:`CheckpointStore.encode`) and the
entry is written unchanged.  The trust model — spec-hash directory,
embedded re-verified hash, atomic writes, rejection reasons, counters
``par_checkpoint_*`` and events ``checkpoint.*`` — is the shared
:class:`~repro.par.store.ContentStore`.

The persisted metrics delta keeps **result metrics only**
(:meth:`~repro.obs.MetricsRegistry.results_only`): cache hit/miss
splits, store lookups and the rest of the execution telemetry depend on
how a run was laid out over processes, so they never reach the bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..core.pipeline import CycleResult
from ..obs import MetricsRegistry
from .store import ContentStore

CHECKPOINT_VERSION = 7
"""Bumped whenever the on-disk payload shape changes; old files are
then rejected (reason ``version``) instead of mis-read.  Version 6
keyed one entry per cycle; version 7 stores each entry as the cycle's
``result`` plus its results-only ``delta`` instead of a runner
``ShardResult``, and pair-block entries are gone."""


class CheckpointStore(ContentStore):
    """Loads and saves per-cycle entries under one spec's directory."""

    KIND = "checkpoint"
    METRIC = "par_checkpoint"
    VERSION = CHECKPOINT_VERSION
    VERSION_FIELD = "checkpoint_version"
    PATTERN = "cycle-{:04d}.ckpt"
    NOUN = "Cycle checkpoint"

    def encode(self, result: CycleResult, delta: Dict[str, Any]) -> bytes:
        """The stored bytes of one cycle.

        Pickle records which objects a graph shares, and a result that
        crossed a process boundary shares fewer, so a cycle is encoded
        in the process that computed it — that is what makes its bytes
        the same whatever layout computed it.
        """
        return self._encode(result.cycle, result=result,
                            delta=MetricsRegistry.results_only(delta))

    def save(self, cycle: int, entry: bytes) -> Path:
        """Atomically persist one :meth:`encode`-d entry."""
        return self._write(cycle, entry)

    def load(self, cycle: int
             ) -> Optional[Tuple[CycleResult, Dict[str, Any]]]:
        """One cycle's verified ``(result, delta)``, or None.

        Every lookup counts a hit or a miss; a rejected file is a miss
        too, and the runner re-runs its cycle.
        """
        payload = self._read(cycle)
        fact = "miss" if payload is None else "hit"
        self._record(fact, path=self.path_for(cycle).name, cycle=cycle)
        if payload is None:
            return None
        return payload["result"], payload["delta"]

    def _usable(self, payload: Dict[str, Any]) -> bool:
        result = payload.get("result")
        return (isinstance(result, CycleResult)
                and result.cycle == payload["cycle"]
                and isinstance(payload.get("delta"), dict))


spec_hash = CheckpointStore.hash_spec
"""Content hash naming one spec's checkpoint directory."""
