"""Parallel study execution: deterministic cycle sharding.

The longitudinal campaign (60 monthly cycles, simulate -> extract ->
filter -> classify each) is embarrassingly parallel *across* cycles as
long as every worker sees the exact network state a serial run would
have at its cycles.  This package provides that:

* :func:`shard_cycles` splits a cycle range into contiguous blocks, one
  per worker — contiguity minimises replay work; :func:`plan_shards`
  plans over the cycles still missing (all of them on a fresh run) and
  extends the split *inside* cycles when workers outnumber them
  (intra-cycle pair blocks, reassembled in pair order by the runner);
* each worker deterministically reconstructs its block's starting state
  with :meth:`~repro.sim.ark.ArkSimulator.fast_forward` (control-plane
  replay: policies applied and timers ticked, no probes), then runs its
  cycles locally;
* :func:`run_study` collects the per-shard :class:`CycleResult` lists in
  cycle order and merges each shard's metrics delta back into the parent
  registry via :meth:`repro.obs.MetricsRegistry.absorb`.

The contract — asserted in ``tests/test_par.py`` — is that a run with
``workers=N`` produces **byte-identical** tables, figures,
classifications and merged metrics to the serial run (DESIGN §6 and §8).

The runner is also **fault tolerant**: failed shards retry with
exponential backoff (and optional subdivision), finished cycles can be
checkpointed to disk, one entry per cycle, and a restart under any
worker count runs only the missing ones (:mod:`repro.par.checkpoint`),
and :mod:`repro.par.faults` provides the
test-only hooks that stage worker deaths so the recovery paths stay
covered (``tests/test_par_faults.py``).

Replay itself is near-O(1) when a **state store** is attached
(:mod:`repro.par.statestore`): full control-plane snapshots every
``snapshot_stride`` cycles let workers and resumed runs restore the
nearest snapshot and replay only the tail, instead of the whole prefix
— still byte-identical (DESIGN §10).
"""

from .shard import Shard, plan_shards, shard_cycles
from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    spec_hash,
    strip_layout_dependent,
)
from .faults import KILL, RAISE, FaultInjected, FaultPlan, ShardFault
from .statestore import (
    DEFAULT_SNAPSHOT_STRIDE,
    STATE_VERSION,
    StateStore,
    state_spec_hash,
)
from .runner import (
    ShardResult,
    StudyFailure,
    StudyRun,
    StudySpec,
    build_study,
    run_study,
)

__all__ = [
    "Shard",
    "plan_shards",
    "shard_cycles",
    "strip_layout_dependent",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "spec_hash",
    "DEFAULT_SNAPSHOT_STRIDE",
    "STATE_VERSION",
    "StateStore",
    "state_spec_hash",
    "KILL",
    "RAISE",
    "FaultInjected",
    "FaultPlan",
    "ShardFault",
    "ShardResult",
    "StudyFailure",
    "StudyRun",
    "StudySpec",
    "build_study",
    "run_study",
]
