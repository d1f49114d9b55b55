"""Experiment registry: one entry per table/figure of the paper.

:func:`run_longitudinal_study` executes the full 60-cycle campaign once;
:func:`regenerate` then rebuilds any (or every) paper artifact from it.
The benchmark harness and the examples are thin wrappers over this
module, so ``EXPERIMENTS.md`` and the bench output always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..core.pipeline import LprPipeline, persistence_sweep
from ..obs import span
from ..par import StudySpec, run_study
from ..sim.ark import ArkSimulator, daily_campaign, \
    label_dynamics_campaign
from ..sim.config import MplsPolicy
from ..sim.scenarios import (
    ATT,
    CYCLES,
    LEVEL3,
    LEVEL3_RISE_CYCLE,
    NTT,
    TATA,
    VODAFONE,
)
from .aggregate import LongitudinalStudy
from .figures import (
    FigureResult,
    fig5a,
    fig5b,
    fig6,
    fig7,
    fig8,
    fig9,
    fig13,
    fig16,
    fig17,
    per_as_figure,
)
from .tables import TableResult, table1, table2

FOCUS_ASES = {
    VODAFONE: "Vodafone",
    ATT: "AT&T",
    TATA: "Tata",
    NTT: "NTT",
    LEVEL3: "Level3",
}

ArtifactResult = Union[FigureResult, TableResult]


@dataclass
class Study:
    """Everything produced by one longitudinal campaign."""

    simulator: ArkSimulator
    pipeline: LprPipeline
    longitudinal: LongitudinalStudy

    @property
    def last_cycle(self):
        """The final cycle's result (the paper's 'cycle 60' snapshots)."""
        return self.longitudinal.results[-1]


def run_longitudinal_study(scale: float = 1.0, seed: int = 2015,
                           cycles: Optional[int] = None,
                           snapshots_per_cycle: int = 3,
                           workers: int = 1, **options) -> Study:
    """Run the paper's measurement campaign end to end.

    ``scale`` shrinks router/prefix counts for fast tests; ``cycles``
    truncates the study (``None``: the full 60; below 1 is a
    ``ValueError``).  The campaign runs under a ``study.run`` span
    through :func:`repro.par.run_study`, which takes ``workers`` and
    every execution option in ``options`` (checkpoints, retries,
    warm-start state, live telemetry) and documents them.
    """
    if cycles is None:
        cycles = CYCLES
    if cycles < 1:
        raise ValueError(f"a study needs at least 1 cycle, got {cycles}")
    spec = StudySpec(scale=scale, seed=seed, cycles=cycles,
                     snapshots_per_cycle=snapshots_per_cycle)
    with span("study.run", cycles=spec.cycles, workers=workers):
        run = run_study(spec, workers=workers, **options)
    return Study(simulator=run.simulator, pipeline=run.pipeline,
                 longitudinal=LongitudinalStudy(run.results))


def regenerate_fig6(study: Study, windows=(0, 1, 2, 3, 5, 8, 12),
                    snapshots: int = 13) -> FigureResult:
    """The Fig 6 sweep: one month probed as many daily snapshots."""
    simulator = study.simulator
    cycle = study.longitudinal.cycles[-1]
    saved = simulator.snapshots_per_cycle
    simulator.snapshots_per_cycle = snapshots
    try:
        month = simulator.run_cycle(cycle)
    finally:
        simulator.snapshots_per_cycle = saved
    points = persistence_sweep(month.snapshots,
                               simulator.internet.ip2as,
                               windows=windows)
    return fig6(points)


def regenerate_fig16(study: Study, days: int = 30) -> FigureResult:
    """The Fig 16 daily ramp-up of Level3's deployment."""
    ramp_policy = MplsPolicy(enabled=True, ldp=True,
                             te_pair_fraction=0.05,
                             te_tunnels_per_pair=2,
                             mpls_pair_fraction=0.90)
    day_traces = daily_campaign(
        study.simulator, base_cycle=LEVEL3_RISE_CYCLE,
        ramp_asn=LEVEL3, ramp_policy=ramp_policy, days=days,
    )
    return fig16(day_traces, study.simulator.internet.ip2as, LEVEL3)


def regenerate_fig17(study: Study, probes: int = 300) -> FigureResult:
    """The Fig 17 high-frequency label-dynamics campaign (Vodafone)."""
    traces = label_dynamics_campaign(
        study.simulator, cycle=45, target_asn=VODAFONE, probes=probes,
    )
    return fig17(traces, study.simulator.internet.ip2as, VODAFONE)


_PER_AS_FIGURES = {
    "fig10": (VODAFONE, "Vodafone"),
    "fig11": (ATT, "AT&T"),
    "fig12": (TATA, "Tata"),
    "fig14": (NTT, "NTT"),
    "fig15": (LEVEL3, "Level3"),
}


def regenerate(study: Study, artifact: str) -> ArtifactResult:
    """Rebuild one paper artifact ("fig5a", "table1", ...) from a study."""
    with span("study.regenerate", artifact=artifact):
        return _regenerate(study, artifact)


def _regenerate(study: Study, artifact: str) -> ArtifactResult:
    longitudinal = study.longitudinal
    if artifact == "fig5a":
        return fig5a(longitudinal)
    if artifact == "fig5b":
        return fig5b(longitudinal)
    if artifact == "fig6":
        return regenerate_fig6(study)
    if artifact == "fig7":
        return fig7(study.last_cycle)
    if artifact == "fig8":
        return fig8(study.last_cycle)
    if artifact == "fig9":
        return fig9(study.last_cycle)
    if artifact in _PER_AS_FIGURES:
        asn, name = _PER_AS_FIGURES[artifact]
        return per_as_figure(longitudinal, asn, name, artifact)
    if artifact == "fig13":
        return fig13(longitudinal, TATA)
    if artifact == "fig16":
        return regenerate_fig16(study)
    if artifact == "fig17":
        return regenerate_fig17(study)
    if artifact == "table1":
        return table1(longitudinal)
    if artifact == "table2":
        return table2(longitudinal, FOCUS_ASES)
    raise KeyError(f"unknown artifact {artifact!r}; "
                   f"known: {sorted(ALL_ARTIFACTS)}")


ALL_ARTIFACTS = (
    "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "table1", "table2",
)


def regenerate_all(study: Study) -> Dict[str, ArtifactResult]:
    """Rebuild every table and figure of the paper from one study."""
    return {artifact: regenerate(study, artifact)
            for artifact in ALL_ARTIFACTS}
