"""Regeneration of every figure in the paper's evaluation section.

Each ``fig*`` function returns a :class:`FigureResult`: the underlying
data (for assertions in tests/benchmarks) plus a rendered plain-text
view (for eyeballing against the paper).  The mapping to paper figures:

========  ==========================================================
fig5a     share of traces crossing >= 1 explicit tunnel, per cycle
fig5b     MPLS vs non-MPLS address counts, per cycle
fig6      persistence-window sweep: tunnels kept + classification
fig7      IOTP length distribution
fig8      IOTP width distribution (all classes + per class)
fig9      IOTP symmetry distribution per class
fig10-15  per-AS classification + IOTP counts over the cycles
fig13     Mono-FEC subclass split (routers disjoint vs parallel links)
fig16     daily deployment ramp (IOTPs/LSPs before and after filters)
fig17     label sawtooth under RSVP-TE re-optimization
========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.classification import MonoFecSubclass, TunnelClass
from ..core.dynamics import (
    SeriesSummary,
    label_series,
    rank_by_churn,
    step_durations,
    summarize_all,
)
from ..core.extraction import extract_all
from ..core.filters import run_filters
from ..core.metrics import (
    length_distribution,
    symmetry_distribution_by_class,
    width_distribution,
    width_distribution_by_class,
)
from ..core.pipeline import CycleResult, PersistencePoint
from ..core.report import format_table
from ..net.ip import int_to_ip
from ..net.ip2as import Ip2AsMapper
from ..traces import Trace
from .aggregate import LongitudinalStudy
from .render import bar_chart, series_chart, sparkline, stacked_shares


@dataclass
class FigureResult:
    """One regenerated figure: machine-readable data + text rendering."""

    figure_id: str
    data: dict
    text: str

    def __str__(self) -> str:
        return f"== {self.figure_id} ==\n{self.text}"


def fig5a(study: LongitudinalStudy) -> FigureResult:
    """Fig 5a: proportion of traces traversing >= 1 explicit tunnel."""
    shares = study.tunnel_trace_shares()
    values = [share for _, share in shares]
    text = series_chart({"tunnel share": values}, study.cycles,
                        title="Traces with at least one explicit tunnel")
    return FigureResult("fig5a", {"shares": shares}, text)


def fig5b(study: LongitudinalStudy) -> FigureResult:
    """Fig 5b: MPLS and non-MPLS address counts per cycle."""
    counts = study.address_counts()
    mpls = [m for _, m, _ in counts]
    other = [o for _, _, o in counts]
    text = series_chart(
        {"MPLS IPs": mpls, "non-MPLS IPs": other}, study.cycles,
        title="Unique addresses per cycle",
    )
    growth = study.growth()
    text += (f"\ngrowth over the study: MPLS {growth['mpls']:+.0%}, "
             f"non-MPLS {growth['non_mpls']:+.0%}")
    return FigureResult("fig5b", {"counts": counts, "growth": growth},
                        text)


def fig6(points: Sequence[PersistencePoint]) -> FigureResult:
    """Fig 6: persistence-window sweep (tunnels kept + class shares)."""
    kept = {point.window: point.kept_lsps for point in points}
    shares = {
        point.window: {
            tunnel_class.value: share
            for tunnel_class, share in
            point.classification.shares().items()
        }
        for point in points
    }
    rows = [
        [window, kept[window]] + [
            f"{shares[window][tc.value]:.3f}" for tc in TunnelClass
        ]
        for window in sorted(kept)
    ]
    text = format_table(
        ["j", "LSPs kept"] + [tc.value for tc in TunnelClass], rows)
    return FigureResult("fig6", {"kept": kept, "shares": shares}, text)


def fig7(result: CycleResult) -> FigureResult:
    """Fig 7: IOTP length distribution for one cycle."""
    pdf = length_distribution(result.classification)
    return FigureResult(
        "fig7", {"pdf": pdf},
        bar_chart(pdf, title=f"IOTP length PDF (cycle {result.cycle})"),
    )


def fig8(result: CycleResult) -> FigureResult:
    """Fig 8: IOTP width distribution, global and per class."""
    overall = width_distribution(result.classification)
    per_class = {
        tunnel_class.value: pdf
        for tunnel_class, pdf in
        width_distribution_by_class(result.classification).items()
        if tunnel_class in (TunnelClass.MONO_FEC, TunnelClass.MULTI_FEC)
    }
    text = bar_chart(overall,
                     title=f"IOTP width PDF (cycle {result.cycle})")
    for name, pdf in per_class.items():
        text += "\n" + bar_chart(pdf, title=f"width PDF — {name}")
    return FigureResult("fig8", {"overall": overall,
                                 "per_class": per_class}, text)


def fig9(result: CycleResult) -> FigureResult:
    """Fig 9: IOTP symmetry distribution for the multi-LSP classes."""
    per_class = {
        tunnel_class.value: pdf
        for tunnel_class, pdf in
        symmetry_distribution_by_class(result.classification).items()
    }
    text = "\n".join(
        bar_chart(pdf, title=f"symmetry PDF — {name}")
        for name, pdf in per_class.items()
    )
    return FigureResult("fig9", {"per_class": per_class}, text)


def per_as_figure(study: LongitudinalStudy, asn: int, name: str,
                  figure_id: str) -> FigureResult:
    """Figs 10–12, 14, 15: one AS's classification over the cycles."""
    shares = {
        tunnel_class.value: values
        for tunnel_class, values in
        study.class_share_series(asn).items()
    }
    counts = study.iotp_count_series(asn)
    text = stacked_shares(
        shares, study.cycles,
        title=f"{figure_id}: AS{asn} ({name}) class shares",
    )
    text += "\nIOTP count  |" + sparkline(
        [float(c) for c in counts]) + f"|  max={max(counts)}"
    dynamic_cycles = study.dynamic_ases().get(asn, 0)
    if dynamic_cycles:
        text += f"\ntagged dynamic in {dynamic_cycles} cycles"
    return FigureResult(figure_id,
                        {"shares": shares, "counts": counts,
                         "dynamic_cycles": dynamic_cycles}, text)


def fig13(study: LongitudinalStudy, asn: int) -> FigureResult:
    """Fig 13: Mono-FEC split between parallel links and disjoint
    routers for one AS (the paper uses Tata)."""
    series = {
        subclass.value: values
        for subclass, values in study.subclass_share_series(asn).items()
    }
    text = series_chart(series, study.cycles,
                        title=f"fig13: AS{asn} Mono-FEC subclass split")
    averages = {
        name: (sum(values) / len(values) if values else 0.0)
        for name, values in series.items()
    }
    text += "\naverages: " + ", ".join(
        f"{name}={value:.2f}" for name, value in averages.items())
    return FigureResult("fig13", {"series": series,
                                  "averages": averages}, text)


def fig16(days: Sequence[Sequence[Trace]],
          ip2as: Ip2AsMapper, asn: int) -> FigureResult:
    """Fig 16: daily IOTP/LSP counts before and after filtering.

    As in the paper, the Persistence filter is not applied to the daily
    data (there are no matched follow-up snapshots), and the counts are
    restricted to the AS under study.
    """
    iotps_before: List[int] = []
    iotps_after: List[int] = []
    lsps_before: List[int] = []
    lsps_after: List[int] = []
    for traces in days:
        lsps = extract_all(traces)
        in_as = [
            lsp for lsp in lsps
            if lsp.hops and all(ip2as.lookup_single(address) == asn
                                for address in lsp.addresses)
        ]
        lsps_before.append(len({lsp.signature for lsp in in_as}))
        iotps_before.append(len({
            (lsp.entry, lsp.exit) for lsp in in_as
            if lsp.entry is not None and lsp.exit is not None
        }))
        iotps, _stats = run_filters(lsps, ip2as)
        mine = [iotp for key, iotp in iotps.items() if key[0] == asn]
        iotps_after.append(len(mine))
        lsps_after.append(sum(iotp.width for iotp in mine))
    text = series_chart(
        {
            "IOTPs before": [float(v) for v in iotps_before],
            "IOTPs after": [float(v) for v in iotps_after],
            "LSPs before": [float(v) for v in lsps_before],
            "LSPs after": [float(v) for v in lsps_after],
        },
        list(range(1, len(days) + 1)),
        title=f"fig16: AS{asn} daily deployment ramp",
    )
    return FigureResult("fig16", {
        "iotps_before": iotps_before, "iotps_after": iotps_after,
        "lsps_before": lsps_before, "lsps_after": lsps_after,
    }, text)


def fig17(traces: Sequence[Trace], ip2as: Ip2AsMapper,
          asn: int) -> FigureResult:
    """Fig 17: per-LSR label evolution under re-optimization."""
    series = label_series(traces, ip2as, asn)
    summaries = summarize_all(series)
    ranked = rank_by_churn(summaries)
    rows = []
    for address, summary in ranked:
        durations = step_durations(series[address])
        mean_step_s = (sum(durations) / len(durations)
                       if durations else 0.0)
        rows.append([
            int_to_ip(address), summary.samples, summary.change_points,
            summary.wraps, summary.min_label, summary.max_label,
            f"{mean_step_s / 60:.0f} min",
        ])
    text = format_table(
        ["LSR", "samples", "changes", "wraps", "min label",
         "max label", "mean step"],
        rows,
    )
    for address, _ in ranked[:4]:
        labels = [float(label) for _, label in series[address]]
        text += (f"\n{int_to_ip(address)}  |"
                 + sparkline(labels) + "|")
    return FigureResult("fig17", {
        "series": series,
        "summaries": summaries,
        "ranked": [address for address, _ in ranked],
    }, text)
