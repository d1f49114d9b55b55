"""The differential oracle: one spec, every execution path, zero diffs.

The study runner grew four independent fast paths (process-pool cycle
shards, forwarding-path memoization, checkpoint resume, warm-start
state snapshots) plus two archive read modes.  Each claims byte-identity with the serial reference; this
module *proves* it per run, the way TNT-style measurement studies
cross-validate pipelines: execute the same
:class:`~repro.par.StudySpec` through every configuration, canonicalise
each cycle's artifacts, and diff them cycle-by-cycle against the
reference, reporting the first divergent ``(config, cycle, stage)``
with a structured value diff.

A configuration is a :class:`VerifyConfig`; :func:`default_matrix`
builds the standard seven.  :func:`run_matrix` executes them all,
audits the reference run and every configuration's run against the
invariant registry (:mod:`repro.verify.invariants`), and — on
divergence — hands the failing configuration to the shrinker
(:mod:`repro.verify.shrink`) for a minimal reproducing spec.
Everything emits ``verify.*`` events on the flight-recorder bus and
``verify_configs_total`` / ``verify_divergences_total`` metrics, so
``repro report`` can reconstruct a verification run post-hoc (DESIGN
§11).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.render import format_table
from ..core.pipeline import CycleResult
from ..obs import emit, get_registry
from ..par import (
    FaultInjected,
    FaultPlan,
    RAISE,
    ShardFault,
    StudyRun,
    StudySpec,
    build_study,
    run_study,
)
from ..warts import read_archive, salvage_archive, write_archive
from .invariants import Violation, audit

_CONFIGS = get_registry().counter(
    "verify_configs_total",
    "Differential configurations executed, by config")
_DIVERGENCES = get_registry().counter(
    "verify_divergences_total",
    "Configurations that diverged from the serial reference")

STAGES = ("stats", "filter_stats", "iotps", "classification",
          "metrics")
"""Per-cycle diff stages, in the order the pipeline produces them —
the first divergent stage names the layer that broke."""

MAX_DIFF_ENTRIES = 8
"""Structured-diff entries reported per divergence (the first one
names the failure; the rest are context)."""


@dataclass(frozen=True)
class VerifyConfig:
    """One way of executing a study spec.

    ``workers`` shards cycles over a process pool.
    ``memoize=False`` runs the uncached forwarding reference.
    ``resume`` stages a mid-study crash (RAISE fault against a
    checkpointed serial run) and re-runs to completion from the
    checkpoints on ``workers`` processes — a cross-layout resume.
    ``state`` names a shared warm-start store key:
    configs with the same key use the same ``--state-dir``, so a
    ``cold`` run seeds the snapshots a later ``warm`` run restores.
    ``archive`` round-trips cycle 1 through the warts codec and back
    (``strict`` reader or ``tolerant`` salvage path) before the
    pipeline runs.
    """

    name: str
    description: str = ""
    workers: int = 1
    memoize: bool = True
    resume: bool = False
    state: Optional[str] = None
    archive: Optional[str] = None

    @property
    def partial(self) -> bool:
        """Whether this config only reproduces a prefix of the run."""
        return self.archive is not None


def default_matrix(workers: int = 2) -> List[VerifyConfig]:
    """The standard configuration matrix (DESIGN §11).

    Order matters only for the state-store pair: ``state-cold`` seeds
    the shared snapshot directory ``state-warm`` then restores from.
    """
    return [
        VerifyConfig(name="workers", workers=workers,
                     description=f"cycle shards over {workers} "
                                 f"worker processes"),
        VerifyConfig(name="no-memo", memoize=False,
                     description="forwarding-path memoization "
                                 "disabled (uncached reference)"),
        VerifyConfig(name="resume", resume=True, workers=workers,
                     description=f"serial mid-study crash, then "
                                 f"checkpoint resume on {workers} "
                                 f"workers"),
        VerifyConfig(name="state-cold", state="shared",
                     description="serial run seeding a warm-start "
                                 "state store"),
        VerifyConfig(name="state-warm", state="shared",
                     description="serial run restoring the snapshots "
                                 "state-cold wrote"),
        VerifyConfig(name="strict-archive", archive="strict",
                     description="cycle 1 round-tripped through the "
                                 "warts codec (strict reader)"),
        VerifyConfig(name="tolerant-archive", archive="tolerant",
                     description="cycle 1 round-tripped through the "
                                 "salvage reader (clean archives)"),
    ]


CONFIG_NAMES = tuple(config.name for config in default_matrix())


@dataclass(frozen=True)
class DiffEntry:
    """One differing value: where, and the two sides."""

    path: str
    reference: Any
    candidate: Any

    def __str__(self) -> str:
        return (f"{self.path}: reference={self.reference!r} "
                f"candidate={self.candidate!r}")


@dataclass(frozen=True)
class Divergence:
    """The first point where a configuration left the reference."""

    config: str
    stage: str
    cycle: Optional[int]
    entries: Tuple[DiffEntry, ...] = ()

    def describe(self) -> str:
        where = (f"cycle {self.cycle}, stage {self.stage}"
                 if self.cycle is not None else f"stage {self.stage}")
        lines = [f"config {self.config!r} diverged at {where}:"]
        lines.extend(f"  {entry}" for entry in self.entries)
        return "\n".join(lines)


@dataclass
class ConfigOutcome:
    """What one configuration's execution produced."""

    config: VerifyConfig
    divergence: Optional[Divergence] = None
    error: Optional[str] = None
    cycles: int = 0
    minimal_spec: Optional[StudySpec] = None
    command: Optional[str] = None
    shrink_trials: int = 0
    violations: List[Violation] = field(default_factory=list)
    """The invariants this configuration's own run broke."""

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        if self.divergence is not None:
            return "DIVERGED"
        return "VIOLATED" if self.violations else "ok"


@dataclass
class MatrixReport:
    """The verdict of one full differential + invariant sweep."""

    spec: StudySpec
    outcomes: List[ConfigOutcome] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def divergences(self) -> List[Divergence]:
        return [outcome.divergence for outcome in self.outcomes
                if outcome.divergence is not None]

    @property
    def clean(self) -> bool:
        return (not self.divergences and not self.violations
                and all(o.error is None for o in self.outcomes))

    def render(self) -> str:
        """Printable summary: the matrix table, then any findings."""
        rows = [[outcome.config.name, outcome.cycles, outcome.status,
                 outcome.config.description]
                for outcome in self.outcomes]
        sections = [
            f"spec: cycles={self.spec.cycles} scale={self.spec.scale} "
            f"seed={self.spec.seed} "
            f"snapshots={self.spec.snapshots_per_cycle}",
            format_table(["config", "cycles", "status", "exercises"],
                         rows),
        ]
        for violation in self.violations:
            sections.append(f"invariant violation: {violation}")
        for outcome in self.outcomes:
            if outcome.error is not None:
                sections.append(f"config {outcome.config.name!r} "
                                f"failed to run: {outcome.error}")
            if outcome.divergence is not None:
                sections.append(outcome.divergence.describe())
            if outcome.minimal_spec is not None:
                spec = outcome.minimal_spec
                sections.append(
                    f"minimal reproducing spec "
                    f"({outcome.shrink_trials} shrink trials): "
                    f"cycles={spec.cycles} scale={spec.scale} "
                    f"snapshots={spec.snapshots_per_cycle}\n"
                    f"  repro: {outcome.command}")
        verdict = ("verify: all configurations byte-identical, "
                   "all invariants hold"
                   if self.clean else
                   f"verify: {len(self.divergences)} divergence(s), "
                   f"{len(self.violations)} invariant violation(s)")
        sections.append(verdict)
        return "\n\n".join(sections)


def state_fingerprint(internet) -> tuple:
    """Canonical end-state digest: every label allocator's position
    plus every TE session's label bindings, per AS."""
    state = []
    for asn in sorted(internet.networks):
        network = internet.networks[asn]
        if network.labels is None:
            state.append((asn, None))
            continue
        allocators = tuple(
            (router, alloc._next, alloc.allocated_total,
             tuple(sorted(alloc._in_use)))
            for router, alloc in sorted(
                network.labels.allocators.items())
        )
        sessions = tuple(sorted(
            (str(session.fec), tuple(sorted(session.labels.items())))
            for session in network.rsvp._sessions.values()
        )) if network.rsvp else ()
        state.append((asn, allocators, sessions))
    return tuple(state)


def canonical_cycle(result: CycleResult) -> Dict[str, Any]:
    """One cycle's artifacts in diffable form.

    ``metrics`` is the cycle's results-only metrics, as the pipeline
    stored them — how warm a cache happened to be is an execution
    detail, not a result.
    """
    return {
        "stats": asdict(result.stats),
        "filter_stats": asdict(result.filter_stats),
        "iotps": sorted(result.iotps),
        "classification": {
            key: (verdict.tunnel_class.value,
                  verdict.subclass.value if verdict.subclass else None,
                  verdict.dynamic, verdict.width, verdict.length,
                  verdict.symmetry)
            for key, verdict in sorted(
                result.classification.verdicts.items())
        },
        "metrics": result.metrics,
    }


def _diff_value(path: str, reference: Any, candidate: Any,
                out: List[DiffEntry]) -> None:
    """Recursive structured diff, appending leaf-level entries."""
    if len(out) >= MAX_DIFF_ENTRIES:
        return
    if isinstance(reference, dict) and isinstance(candidate, dict):
        for key in sorted(set(reference) | set(candidate), key=str):
            if key not in reference:
                out.append(DiffEntry(f"{path}.{key}", "<absent>",
                                     candidate[key]))
            elif key not in candidate:
                out.append(DiffEntry(f"{path}.{key}", reference[key],
                                     "<absent>"))
            elif reference[key] != candidate[key]:
                _diff_value(f"{path}.{key}", reference[key],
                            candidate[key], out)
            if len(out) >= MAX_DIFF_ENTRIES:
                return
        return
    if (isinstance(reference, (list, tuple))
            and isinstance(candidate, (list, tuple))):
        if len(reference) != len(candidate):
            out.append(DiffEntry(f"{path}.<len>", len(reference),
                                 len(candidate)))
        for index, (left, right) in enumerate(zip(reference,
                                                  candidate)):
            if left != right:
                _diff_value(f"{path}[{index}]", left, right, out)
            if len(out) >= MAX_DIFF_ENTRIES:
                return
        return
    out.append(DiffEntry(path, reference, candidate))


def diff_cycles(reference: List[CycleResult],
                candidate: List[CycleResult],
                config: VerifyConfig) -> Optional[Divergence]:
    """First divergent (cycle, stage) between two result lists.

    A partial config (archive round-trips) only reproduces a prefix;
    full configs must match the reference cycle-for-cycle.
    """
    by_cycle = {result.cycle: result for result in reference}
    if not config.partial:
        want = sorted(by_cycle)
        got = sorted(result.cycle for result in candidate)
        if want != got:
            return Divergence(
                config=config.name, stage="cycle-count", cycle=None,
                entries=(DiffEntry("cycles", want, got),))
    for result in sorted(candidate, key=lambda r: r.cycle):
        base = by_cycle.get(result.cycle)
        if base is None:
            return Divergence(
                config=config.name, stage="cycle-count",
                cycle=result.cycle,
                entries=(DiffEntry("cycle", "<absent>",
                                   result.cycle),))
        left = canonical_cycle(base)
        right = canonical_cycle(result)
        for stage in STAGES:
            if left[stage] != right[stage]:
                entries: List[DiffEntry] = []
                _diff_value(stage, left[stage], right[stage], entries)
                return Divergence(
                    config=config.name, stage=stage,
                    cycle=result.cycle, entries=tuple(entries))
    return None


def find_divergence(reference: List[CycleResult], reference_end: tuple,
                    results: List[CycleResult], run: Optional[StudyRun],
                    config: VerifyConfig) -> Optional[Divergence]:
    """A configuration's first divergence from the reference: its cycle
    results (:func:`diff_cycles`), then, when it ran a study, its end
    state against the reference's fingerprint ``reference_end``."""
    divergence = diff_cycles(reference, results, config)
    if divergence is None and run is not None \
            and state_fingerprint(run.simulator.internet) != reference_end:
        divergence = Divergence(
            config=config.name, stage="end-state", cycle=None,
            entries=(DiffEntry("state_fingerprint", "<reference>",
                               "<differs>"),))
    return divergence


def _mid_cycle(spec: StudySpec) -> int:
    """Where the staged crash of a ``resume`` config fires."""
    return max(1, (spec.cycles + 1) // 2)


def execute_config(spec: StudySpec, config: VerifyConfig,
                   workdir: Path
                   ) -> Tuple[List[CycleResult], Optional[StudyRun],
                              Dict[str, Any]]:
    """Run one configuration; returns (results, run, registry delta).

    ``run`` and ``delta`` are those of the configuration's final
    :func:`run_study` (for ``resume``, the resumed run, not the
    staged crash); an archive round trip runs no study and returns
    ``(results, None, {})``.  ``workdir`` holds this matrix run's
    scratch state; per-config directories are derived from the config
    name, except the shared warm-start store which is keyed by
    ``config.state`` so cold and warm runs see the same snapshots.
    """
    workdir = Path(workdir)
    if config.archive is not None:
        return _archive_roundtrip(spec, config, workdir), None, {}
    spec = replace(spec, memoize=config.memoize)
    options: Dict[str, Any] = {}
    if config.state is not None:
        options["state_dir"] = workdir / f"state-{config.state}"
        options["snapshot_stride"] = 1
    if config.resume:
        checkpoint_dir = workdir / f"checkpoint-{config.name}"
        plan = FaultPlan({_mid_cycle(spec): ShardFault(kind=RAISE)})
        try:
            run_study(spec, workers=1, checkpoint_dir=checkpoint_dir,
                      fault_plan=plan, **options)
        except FaultInjected:
            pass
        else:  # pragma: no cover - the staged fault always fires
            raise RuntimeError("staged mid-study fault did not fire")
        options["checkpoint_dir"] = checkpoint_dir
    registry = get_registry()
    before = registry.snapshot()
    run = run_study(spec, workers=config.workers, **options)
    return run.results, run, registry.diff(before, registry.snapshot())


def _archive_roundtrip(spec: StudySpec, config: VerifyConfig,
                       workdir: Path) -> List[CycleResult]:
    """Cycle 1 written to warts archives and read back, then piped.

    The strict reader and the tolerant salvage reader must agree with
    each other *and* with the in-memory reference on clean archives —
    and salvage must skip nothing.
    """
    simulator, pipeline = build_study(spec)
    data = simulator.run_cycle(1)
    archive_dir = workdir / f"archive-{config.archive}"
    archive_dir.mkdir(parents=True, exist_ok=True)
    snapshots = []
    for index, snapshot in enumerate(data.snapshots):
        path = archive_dir / f"snapshot-{index}.rwts"
        write_archive(path, snapshot)
        if config.archive == "tolerant":
            traces, skipped = salvage_archive(path)
            if skipped:
                raise RuntimeError(
                    f"salvage skipped {sum(skipped.values())} "
                    f"record(s) of a clean archive: {skipped}")
        else:
            traces = read_archive(path)
        snapshots.append(traces)
    return [pipeline.process_snapshots(1, snapshots)]


def repro_command(spec: StudySpec, config: VerifyConfig) -> str:
    """A standalone CLI invocation reproducing one configuration."""
    parts = [
        "repro", "verify",
        "--cycles", str(spec.cycles),
        "--scale", str(spec.scale),
        "--seed", str(spec.seed),
        "--snapshots-per-cycle", str(spec.snapshots_per_cycle),
        "--configs", config.name,
    ]
    if config.workers > 1:
        parts += ["--workers", str(config.workers)]
    return " ".join(parts)


def run_matrix(spec: StudySpec,
               configs: Optional[List[VerifyConfig]] = None,
               *, workdir: Path, shrink: bool = True,
               workers: int = 2) -> MatrixReport:
    """Execute the full differential + invariant sweep for one spec.

    The serial run is the reference: it is executed first through
    :func:`execute_config` (keeping the spec's own ``memoize``),
    audited against the invariant registry, then every configuration is
    executed, audited the same way (its cycle results, and its final
    run when it ran a study) and diffed against the reference;
    violations carry their configuration's name.  With ``shrink``
    set, each divergent configuration is handed to
    :func:`repro.verify.shrink.shrink_divergence` for a minimal
    reproducing spec and a standalone repro command.
    """
    from .shrink import shrink_divergence  # circular: shrink re-runs us

    if configs is None:
        configs = default_matrix(workers=workers)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    emit("verify.start", configs=[config.name for config in configs],
         cycles=spec.cycles, scale=spec.scale, seed=spec.seed)

    results, reference, delta = execute_config(
        spec, VerifyConfig(name="reference", memoize=spec.memoize),
        workdir)
    reference_end = state_fingerprint(reference.simulator.internet)
    violations = audit(results, reference, delta)

    report = MatrixReport(spec=spec, violations=violations)
    for config in configs:
        _CONFIGS.inc(config=config.name)
        try:
            results, run, run_delta = execute_config(spec, config,
                                                     workdir)
        except Exception as error:
            report.outcomes.append(ConfigOutcome(
                config=config, error=f"{type(error).__name__}: "
                                     f"{error}"))
            emit("verify.config", config=config.name, status="error",
                 error=str(error))
            continue
        # Diffed before the audit's state round trip restores the run.
        divergence = find_divergence(reference.results, reference_end,
                                     results, run, config)
        violated = audit(results, run, run_delta, config=config.name)
        report.violations.extend(violated)
        outcome = ConfigOutcome(config=config, divergence=divergence,
                                cycles=len(results), violations=violated)
        report.outcomes.append(outcome)
        emit("verify.config", config=config.name,
             status=outcome.status, cycles=len(results))
        if divergence is None:
            continue
        _DIVERGENCES.inc()
        emit("verify.divergence", config=config.name,
             stage=divergence.stage,
             detail=(str(divergence.entries[0])
                     if divergence.entries else ""),
             **({"cycle": divergence.cycle}
                if divergence.cycle is not None else {}))
        if shrink:
            shrunk = shrink_divergence(spec, config, divergence,
                                       workdir / "shrink")
            outcome.minimal_spec = shrunk.spec
            outcome.shrink_trials = shrunk.trials
            outcome.command = repro_command(shrunk.spec, config)
    emit("verify.done", configs=len(report.outcomes),
         divergences=len(report.divergences),
         violations=len(report.violations))
    return report
