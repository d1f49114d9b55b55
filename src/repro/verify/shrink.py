"""Auto-shrinking divergent specs to minimal reproductions.

A divergence found by the matrix runner on a 60-cycle campaign is a
terrible debugging artifact: the failing run takes minutes and the
interesting cycle is buried.  This module shrinks the spec the way
property-testing frameworks shrink counterexamples — greedily, one
dimension at a time, re-checking after every cut that the candidate
still diverges:

1. **cycle bisection** — cap the run at the first divergent cycle,
   then binary-search the smallest cycle count that still diverges;
2. **scale ladder** — halve the topology scale while the divergence
   survives (floored so the scenario stays buildable);
3. **snapshot reduction** — drop follow-up snapshots to the smallest
   count that still reproduces.

Every trial re-runs both the serial reference and the failing
configuration on the candidate spec, so the result is a spec that
*provably* still diverges, emitted as a standalone ``repro verify``
command.  Progress is streamed as ``verify.shrink.step`` events; the
end state as one ``verify.minimal`` event (DESIGN §11).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from ..obs import emit, get_registry
from ..par import StudySpec
from .differential import (
    Divergence,
    VerifyConfig,
    execute_config,
    find_divergence,
    repro_command,
    state_fingerprint,
)

_TRIALS = get_registry().counter(
    "verify_shrink_trials_total",
    "Shrink trials executed while minimising a divergence")

MIN_SCALE = 0.05
"""Smallest topology scale the shrinker will try — below this the
scenario generator degenerates to too few transit ASes to probe."""


@dataclass(frozen=True)
class ShrinkResult:
    """The minimal reproducing spec and how much work finding it took."""

    spec: StudySpec
    divergence: Divergence
    trials: int


def _still_diverges(spec: StudySpec, config: VerifyConfig,
                    workdir: Path) -> Optional[Divergence]:
    """Re-run reference + config on a candidate spec; None = converged.

    A candidate whose *execution* fails outright (rather than
    diverging) is treated as still-reproducing only if it raised the
    same way a divergence would not — conservatively, an error means
    the cut went too far, so the candidate is rejected.
    """
    try:
        reference_results, reference, _ = execute_config(
            spec, VerifyConfig(name="reference", memoize=spec.memoize),
            workdir)
        results, run, _ = execute_config(spec, config, workdir)
    except Exception:
        return None
    return find_divergence(
        reference_results, state_fingerprint(reference.simulator.internet),
        results, run, config)


class _Shrinker:
    """Greedy shrink loop with trial accounting."""

    def __init__(self, config: VerifyConfig, workdir: Path) -> None:
        self.config = config
        self.workdir = Path(workdir)
        self.trials = 0

    def diverges(self, spec: StudySpec) -> Optional[Divergence]:
        self.trials += 1
        _TRIALS.inc()
        trial_dir = self.workdir / f"trial-{self.trials}"
        trial_dir.mkdir(parents=True, exist_ok=True)
        divergence = _still_diverges(spec, self.config, trial_dir)
        emit("verify.shrink.step", config=self.config.name,
             trial=self.trials, cycles=spec.cycles, scale=spec.scale,
             snapshots=spec.snapshots_per_cycle,
             diverged=divergence is not None)
        return divergence


def shrink_divergence(spec: StudySpec, config: VerifyConfig,
                      divergence: Divergence,
                      workdir: Path) -> ShrinkResult:
    """Minimise a diverging (spec, config) pair.

    Returns the smallest spec found that still reproduces the
    divergence; if no cut survives, that is the original spec.  The
    caller gets a ``verify.minimal`` event either way, carrying the
    final spec and a standalone repro command.
    """
    shrinker = _Shrinker(config, workdir)
    best_spec = spec
    best_divergence = divergence

    # 1. Cap at the first divergent cycle, then bisect the cycle count.
    hi = divergence.cycle if divergence.cycle is not None \
        else spec.cycles
    hi = min(max(hi, 1), spec.cycles)
    capped = shrinker.diverges(replace(spec, cycles=hi))
    if capped is not None:
        best_spec = replace(spec, cycles=hi)
        best_divergence = capped
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            found = shrinker.diverges(replace(spec, cycles=mid))
            if found is not None:
                hi = mid
                best_spec = replace(spec, cycles=mid)
                best_divergence = found
            else:
                lo = mid + 1

    # 2. Halve the topology scale while the divergence survives.
    scale = best_spec.scale
    while scale / 2 >= MIN_SCALE:
        candidate = replace(best_spec, scale=round(scale / 2, 6))
        found = shrinker.diverges(candidate)
        if found is None:
            break
        best_spec = candidate
        best_divergence = found
        scale = candidate.scale

    # 3. Smallest snapshot count that still reproduces.
    for snapshots in range(1, best_spec.snapshots_per_cycle):
        candidate = replace(best_spec, snapshots_per_cycle=snapshots)
        found = shrinker.diverges(candidate)
        if found is not None:
            best_spec = candidate
            best_divergence = found
            break

    command = repro_command(best_spec, config)
    emit("verify.minimal", config=config.name, trials=shrinker.trials,
         cycles=best_spec.cycles, scale=best_spec.scale,
         snapshots=best_spec.snapshots_per_cycle,
         stage=best_divergence.stage, command=command)
    return ShrinkResult(spec=best_spec, divergence=best_divergence,
                        trials=shrinker.trials)
