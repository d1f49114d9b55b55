"""Per-cycle checkpointing for restartable studies.

A multi-hour campaign must not lose everything to one crash near the
end.  Each finished cycle's :class:`~repro.core.pipeline.CycleResult`
is persisted as soon as it exists; a restarted study looks every cycle
up once, restores the hits and runs only the cycles still missing.
Because every cycle is a pure function of ``(StudySpec, cycle)``
(DESIGN §6/§8), a resumed run's results are byte-identical to an
uninterrupted one's.

Layout: ``<checkpoint-dir>/<spec-hash>/cycle-<NNNN>.ckpt`` holds one
cycle, whoever computed it — the in-process executor or a pool worker.
The key names no worker layout, so any layout resumes from any other,
and the bytes do not depend on the layout either: the process that ran
a cycle saves it (:meth:`CheckpointStore.save`), so no result is
pickled again after crossing a process boundary, and a shard that
fails keeps the cycles it finished.  The trust model — spec-hash directory,
embedded re-verified hash, atomic writes, rejection reasons, counters
``par_checkpoint_*`` and events ``checkpoint.*`` — is the shared
:class:`~repro.par.store.ContentStore`.

An entry holds the result alone, and the result's metrics are its
**result metrics only**, as labels and values
(:meth:`~repro.obs.MetricsRegistry.results_only`): cache hit/miss
splits and the rest of the execution telemetry depend on how a run was
laid out over processes, and help text depends on wording, so neither
reaches the bytes.  A restored cycle contributes exactly those LPR
result families to the resumed run's registry; the simulation it
skipped (``sim_*``, ``probes_*``, the caches) is not counted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from ..core.pipeline import CycleResult
from .store import ContentStore

CHECKPOINT_VERSION = 8
"""Bumped whenever the on-disk payload shape changes; old files are
then rejected (reason ``version``) instead of mis-read.  Version 6
keyed one entry per cycle; version 7 stored each entry as the cycle's
``result`` plus its results-only ``delta`` instead of a runner
``ShardResult``, and pair-block entries went; version 8 stores the
``result`` alone, its metrics as result values without type or help
text."""


class CheckpointStore(ContentStore):
    """Loads and saves per-cycle entries under one spec's directory."""

    KIND = "checkpoint"
    METRIC = "par_checkpoint"
    VERSION = CHECKPOINT_VERSION
    VERSION_FIELD = "checkpoint_version"
    PATTERN = "cycle-{:04d}.ckpt"
    NOUN = "Cycle checkpoint"

    def save(self, result: CycleResult) -> Path:
        """Atomically persist one cycle's result under its cycle.

        Pickle records which objects a graph shares, and a result that
        crossed a process boundary shares fewer, so a cycle is saved by
        the process that computed it — that is what makes its bytes the
        same whatever layout computed it.
        """
        return self._write(result.cycle,
                           self._encode(result.cycle, result=result))

    def load(self, cycle: int) -> Optional[CycleResult]:
        """One cycle's verified result, or None.

        Every lookup counts a hit or a miss; a rejected file is a miss
        too, and the runner re-runs its cycle.
        """
        payload = self._read(cycle)
        fact = "miss" if payload is None else "hit"
        self._record(fact, path=self.path_for(cycle).name, cycle=cycle)
        if payload is None:
            return None
        return payload["result"]

    def _usable(self, payload: Dict[str, Any]) -> bool:
        result = payload.get("result")
        return (isinstance(result, CycleResult)
                and result.cycle == payload["cycle"])


spec_hash = CheckpointStore.hash_spec
"""Content hash naming one spec's checkpoint directory."""
