"""Correctness backstop: invariants + differential oracle + shrinker.

After the parallel runner, forwarding-path memoization, checkpoint
resume and warm-start snapshots, the same :class:`~repro.par.StudySpec`
can execute through half a dozen independent fast paths.  The paper's LPR conclusions are only
trustworthy if all of them are *byte-identical* to the plain serial
reference — an equivalence previously asserted only in scattered
pairwise tests.  This package makes it a first-class subsystem:

* :mod:`repro.verify.invariants` — per-cycle and per-run invariant
  checkers (filter-funnel monotonicity, classification share/count
  reconciliation, drop-counter accounting, cache accounting,
  capture/restore idempotence) every figure silently assumes;
* :mod:`repro.verify.differential` — a matrix runner that executes one
  spec through every configuration (serial, sharded, unmemoized, checkpoint kill+resume, cold/warm state store, strict vs
  tolerant archive round-trips) and diffs canonical artifacts
  cycle-by-cycle, reporting the first divergent (config, cycle, stage);
* :mod:`repro.verify.shrink` — on divergence, auto-shrinks the spec
  (cycle bisection, then scale / snapshot reduction) to a minimal
  reproducing spec emitted as a standalone ``repro verify`` command.

``repro verify`` drives all three from the CLI; every step emits
``verify.*`` flight-recorder events and ``verify_*`` metrics, surfaced
in ``repro report`` (DESIGN §11).
"""

from .invariants import (
    CYCLE_CHECKERS,
    RUN_CHECKERS,
    Violation,
    audit,
    check_cycle,
    check_run,
)
from .differential import (
    CONFIG_NAMES,
    ConfigOutcome,
    DiffEntry,
    Divergence,
    MatrixReport,
    VerifyConfig,
    canonical_cycle,
    default_matrix,
    diff_cycles,
    execute_config,
    repro_command,
    run_matrix,
    state_fingerprint,
)
from .shrink import ShrinkResult, shrink_divergence

__all__ = [
    "CYCLE_CHECKERS",
    "RUN_CHECKERS",
    "Violation",
    "audit",
    "check_cycle",
    "check_run",
    "CONFIG_NAMES",
    "ConfigOutcome",
    "DiffEntry",
    "Divergence",
    "MatrixReport",
    "VerifyConfig",
    "canonical_cycle",
    "default_matrix",
    "diff_cycles",
    "execute_config",
    "repro_command",
    "run_matrix",
    "state_fingerprint",
    "ShrinkResult",
    "shrink_divergence",
]
