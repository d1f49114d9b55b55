"""Regeneration of the paper's tables.

* :func:`table1` — cumulative average (with 95% confidence interval) of
  the proportion of LSPs surviving each LPR filter, over all cycles.
* :func:`table2` — per-AS, per-year min/max/avg counts of addresses
  tagged MPLS and non-MPLS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .aggregate import LongitudinalStudy, MeanWithCi
from ..core.report import format_table

_STAGE_LABELS = {
    "incomplete": "Incomplete LSPs",
    "intra_as": "IntraAS",
    "target_as": "TargetAS",
    "transit_diversity": "TransitDiversity",
    "persistence": "Persistence",
}


@dataclass
class TableResult:
    """One regenerated table: data + text rendering."""

    table_id: str
    data: dict
    text: str

    def __str__(self) -> str:
        return f"== {self.table_id} ==\n{self.text}"


def table1(study: LongitudinalStudy) -> TableResult:
    """Table 1: survivor share after each filter, averaged over cycles."""
    survival = study.filter_survival()
    rows = [
        [_STAGE_LABELS[stage], str(survival[stage])]
        for stage in ("incomplete", "intra_as", "target_as",
                      "transit_diversity", "persistence")
    ]
    text = format_table(["Filter", "Average"], rows)
    return TableResult("table1", {"survival": survival}, text)


def table2(study: LongitudinalStudy,
           ases: Mapping[int, str],
           cycles_per_year: int = 12) -> TableResult:
    """Table 2: yearly min/max/avg IP counts per AS of interest."""
    data: Dict[int, List[Dict[str, int]]] = {}
    rows = []
    for asn in sorted(ases):
        yearly = study.yearly_address_stats(asn, cycles_per_year)
        data[asn] = yearly
        for kind in ("non_mpls", "mpls"):
            row = [f"AS{asn} ({ases[asn]})" if kind == "non_mpls" else "",
                   "non MPLS" if kind == "non_mpls" else "MPLS"]
            for year in yearly:
                row.append(f"{year[kind + '_min']}/"
                           f"{year[kind + '_max']}/"
                           f"{year[kind + '_avg']}")
            rows.append(row)
    year_count = max((len(v) for v in data.values()), default=0)
    headers = ["AS", "addresses"] + [
        f"year {index + 1} (min/max/avg)" for index in range(year_count)
    ]
    return TableResult("table2", {"yearly": data},
                       format_table(headers, rows))
