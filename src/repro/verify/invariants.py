"""Invariant checkers over study results.

Every figure and table rests on a handful of structural facts the
pipeline never states explicitly: the filter funnel only ever narrows,
class shares are a probability distribution over the verdicts, the
per-filter drop counters reconcile exactly with the survivor deltas,
the memoization layers account for every probe, and a control-plane
snapshot restores to exactly the state it captured.  A bug in any fast
path that *happens* to keep artifacts equal would still be caught here
— and conversely, a divergence flagged by the differential oracle
(:mod:`repro.verify.differential`) usually trips one of these first.

Checkers come in two granularities:

* **cycle checkers** (`CYCLE_CHECKERS`) take one
  :class:`~repro.core.pipeline.CycleResult` and validate facts local to
  a cycle;
* **run checkers** (`RUN_CHECKERS`) take a finished
  :class:`~repro.par.StudyRun` plus the run's registry delta and
  validate cross-cycle accounting and end-state round-trips.

Each returns a list of human-readable violation messages (empty =
clean).  :func:`audit` sweeps everything, emitting one
``verify.violation`` event and one ``verify_violations_total{checker=}``
increment per finding.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..core.pipeline import CycleResult
from ..obs import delta_total, emit, get_registry

SHARE_EPSILON = 1e-9
"""Tolerance for float share sums (counts are exact integers)."""

_VIOLATIONS = get_registry().counter(
    "verify_violations_total",
    "Invariant violations found by the verify subsystem, by checker")

_FUNNEL_STAGES = ("extracted", "after_incomplete", "after_intra_as",
                  "after_target_as", "after_transit_diversity",
                  "after_persistence")

_DROP_FILTERS = ("incomplete", "intra_as", "target_as",
                 "transit_diversity", "persistence")


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which checker, where, and what it saw."""

    checker: str
    message: str
    cycle: Optional[int] = None
    config: Optional[str] = None
    """The verify configuration whose run broke it (None: the serial
    reference, or a run audited on its own)."""

    def __str__(self) -> str:
        where = [f"config {self.config}"] if self.config else []
        if self.cycle is not None:
            where.append(f"cycle {self.cycle}")
        prefix = f"{', '.join(where)}: " if where else ""
        return f"[{self.checker}] {prefix}{self.message}"


CycleChecker = Callable[[CycleResult], List[str]]
RunChecker = Callable[[Any, Mapping[str, Any]], List[str]]

CYCLE_CHECKERS: Dict[str, CycleChecker] = {}
RUN_CHECKERS: Dict[str, RunChecker] = {}


def cycle_checker(name: str) -> Callable[[CycleChecker], CycleChecker]:
    """Register a per-cycle invariant checker under ``name``."""
    def register(fn: CycleChecker) -> CycleChecker:
        CYCLE_CHECKERS[name] = fn
        return fn
    return register


def run_checker(name: str) -> Callable[[RunChecker], RunChecker]:
    """Register a per-run invariant checker under ``name``."""
    def register(fn: RunChecker) -> RunChecker:
        RUN_CHECKERS[name] = fn
        return fn
    return register


@cycle_checker("filter-funnel")
def filter_funnel(result: CycleResult) -> List[str]:
    """The five filters only ever narrow the survivor set.

    ``extracted >= after_incomplete >= ... >= after_persistence >= 0``
    — Persistence may *re-inject* an AS's candidates, but those are a
    subset of the TransitDiversity survivors, so even the re-injection
    path keeps the funnel monotone.
    """
    stats = result.filter_stats
    counts = [getattr(stats, stage) for stage in _FUNNEL_STAGES]
    problems = []
    if counts[-1] < 0:
        problems.append(
            f"negative survivor count: after_persistence="
            f"{counts[-1]}")
    for left, right in zip(_FUNNEL_STAGES, _FUNNEL_STAGES[1:]):
        if getattr(stats, left) < getattr(stats, right):
            problems.append(
                f"filter funnel widened: {left}="
                f"{getattr(stats, left)} < {right}="
                f"{getattr(stats, right)}")
    survivors = len(result.iotps)
    if survivors > stats.after_persistence:
        problems.append(
            f"{survivors} IOTPs built from only "
            f"{stats.after_persistence} persistent LSPs")
    return problems


@cycle_checker("classification-reconciliation")
def classification_reconciliation(result: CycleResult) -> List[str]:
    """``shares()`` and ``counts()`` must describe the same verdicts.

    Counts sum to ``len(verdicts)`` exactly; shares sum to 1 ± epsilon
    (all zero for an empty cycle) and each share equals its count over
    the total.
    """
    classification = result.classification
    counts = classification.counts()
    shares = classification.shares()
    total = len(classification.verdicts)
    problems = []
    if sum(counts.values()) != total:
        problems.append(
            f"class counts sum to {sum(counts.values())}, but there "
            f"are {total} verdicts")
    share_sum = sum(shares.values())
    if total == 0:
        if share_sum != 0.0:
            problems.append(
                f"empty cycle reports nonzero shares (sum "
                f"{share_sum})")
        return problems
    if abs(share_sum - 1.0) > SHARE_EPSILON:
        problems.append(
            f"class shares sum to {share_sum!r}, not 1 "
            f"(±{SHARE_EPSILON})")
    for tunnel_class, count in counts.items():
        if count < 0:
            problems.append(
                f"negative count for {tunnel_class.value}: {count}")
            continue
        expected = count / total
        if abs(shares[tunnel_class] - expected) > SHARE_EPSILON:
            problems.append(
                f"share of {tunnel_class.value} is "
                f"{shares[tunnel_class]!r}, expected {count}/{total}")
    return problems


@cycle_checker("filter-drop-counters")
def filter_drop_counters(result: CycleResult) -> List[str]:
    """``lsps_dropped_total`` deltas reconcile with FilterStats.

    The filters increment one labelled counter per stage; the cycle's
    metrics delta must show exactly the survivor difference of each
    stage (absent label = zero drops).
    """
    stats = result.filter_stats
    funnel = [getattr(stats, stage) for stage in _FUNNEL_STAGES]
    expected = {name: funnel[index] - funnel[index + 1]
                for index, name in enumerate(_DROP_FILTERS)}
    recorded = {name: delta_total(result.metrics, "lsps_dropped_total",
                                  filter=name)
                for name in _DROP_FILTERS}
    return [
        f"drop counter mismatch for {name}: counter says "
        f"{recorded[name]:g}, funnel says {expected[name]}"
        for name in _DROP_FILTERS
        if recorded[name] != expected[name]
    ]


@run_checker("cache-accounting")
def cache_accounting(run: Any, delta: Mapping[str, Any]) -> List[str]:
    """Every probe resolves its route exactly once: hit or miss.

    ``route_cache_hits + route_cache_misses`` equals
    ``sim_traces_total`` over every run (DESIGN §8); an unmemoized one
    counts each lookup as a miss.  Negative counter deltas are
    impossible by construction and flagged unconditionally.
    """
    traces = delta_total(delta, "sim_traces_total")
    hits = delta_total(delta, "route_cache_hits_total")
    misses = delta_total(delta, "route_cache_misses_total")
    problems = []
    for name in ("route_cache_hits_total", "route_cache_misses_total",
                 "hop_cache_hits_total", "hop_cache_misses_total",
                 "quoted_stack_cache_hits_total",
                 "quoted_stack_cache_misses_total"):
        if delta_total(delta, name) < 0:
            problems.append(
                f"cache counter went backwards: {name}="
                f"{delta_total(delta, name):g}")
    if hits + misses != traces:
        problems.append(
            f"route cache accounted for {hits + misses:g} probes, "
            f"but {traces:g} traces were simulated")
    return problems


@run_checker("state-roundtrip")
def state_roundtrip(run: Any, delta: Mapping[str, Any]) -> List[str]:
    """``capture_state -> restore_state -> capture_state`` is a fixed
    point: re-capturing a just-restored internet must reproduce the
    snapshot byte-for-byte (the warm-start contract, DESIGN §10)."""
    internet = run.simulator.internet
    first = internet.capture_state()
    internet.restore_state(first)
    second = internet.capture_state()
    if pickle.dumps(first) != pickle.dumps(second):
        return ["capture -> restore -> capture is not idempotent: "
                "re-captured snapshot differs from the original"]
    return []


def check_cycle(result: CycleResult) -> List[Violation]:
    """Run every cycle checker over one result."""
    return [
        Violation(checker=name, cycle=result.cycle, message=message)
        for name, checker in CYCLE_CHECKERS.items()
        for message in checker(result)
    ]


def check_run(run: Any, delta: Mapping[str, Any]) -> List[Violation]:
    """Run every run checker over a finished study."""
    return [
        Violation(checker=name, message=message)
        for name, checker in RUN_CHECKERS.items()
        for message in checker(run, delta)
    ]


def audit(results: List[CycleResult], run: Any,
          delta: Mapping[str, Any], *,
          config: Optional[str] = None) -> List[Violation]:
    """The full invariant sweep: every cycle, then the run itself.

    ``run`` is None for results no study produced (an archive round
    trip): only the cycle checkers apply then.  ``config`` names the
    verify configuration on each violation.  Emits one
    ``verify.violation`` event and bumps
    ``verify_violations_total{checker=}`` per finding, so a broken
    invariant shows up in the flight recorder and ``repro report``
    even when the caller ignores the return value.
    """
    violations: List[Violation] = []
    for result in results:
        violations.extend(check_cycle(result))
    if run is not None:
        violations.extend(check_run(run, delta))
    violations = [replace(violation, config=config)
                  for violation in violations]
    for violation in violations:
        _VIOLATIONS.inc(checker=violation.checker)
        fields = {"cycle": violation.cycle, "config": config}
        emit("verify.violation", checker=violation.checker,
             message=violation.message,
             **{key: value for key, value in fields.items()
                if value is not None})
    return violations
