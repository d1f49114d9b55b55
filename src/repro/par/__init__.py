"""Study execution: one plan, run in-process or over a process pool.

The longitudinal campaign (60 monthly cycles, simulate -> extract ->
filter -> classify each) is embarrassingly parallel *across* cycles as
long as every worker sees the exact network state a serial run would
have at its cycles.  This package provides that:

* :func:`plan_shards` splits the cycles still missing (all of them on a
  fresh run) into contiguous shards, one per worker — contiguity
  minimises replay work;
* :func:`run_study` runs the shards in-process with one worker, or on
  a process pool where each worker reconstructs its shard's starting
  state with :meth:`~repro.sim.ark.ArkSimulator.fast_forward`
  (control-plane replay: policies applied and timers ticked, no
  probes); results come back in cycle order and each worker's metrics
  delta merges into the parent registry via
  :meth:`repro.obs.MetricsRegistry.absorb`.  It is the one entry to
  a study run, and alone declares and documents its options.

The contract — asserted in ``tests/test_par.py`` — is that a run with
``workers=N`` produces **byte-identical** tables, figures,
classifications and merged metrics to the serial run (DESIGN §6 and §8).

What a study leaves on disk lives in one content-addressed store
(:mod:`repro.par.store`) with two kinds of entry, both keyed by cycle:

* **checkpoints** (:mod:`repro.par.checkpoint`) — one per finished
  cycle, so a restart under any worker count runs only the missing
  cycles;
* **state snapshots** (:mod:`repro.par.statestore`) — the control
  plane every ``snapshot_stride`` cycles, so workers and resumed runs
  restore the nearest snapshot and replay only the tail (DESIGN §10).

Persisted metrics keep result metrics only: every metric declares at
registration whether it is execution telemetry, and a checkpoint holds
a cycle's result with its results-only metrics
(:meth:`~repro.obs.MetricsRegistry.results_only`).  Pool shards retry
with exponential backoff, a failed multi-cycle shard splitting in two,
and :mod:`repro.par.faults` provides the test-only hooks that stage
worker deaths so the recovery paths stay covered
(``tests/test_par_faults.py``).
"""

from .shard import Shard, plan_shards, shard_cycles
from .checkpoint import CHECKPOINT_VERSION, CheckpointStore, spec_hash
from .faults import KILL, RAISE, FaultInjected, FaultPlan, ShardFault
from ..options import DEFAULT_SNAPSHOT_STRIDE
from .statestore import STATE_VERSION, StateStore, state_spec_hash
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
