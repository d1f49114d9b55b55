"""The LPR filtering stage (paper §3.1, Fig 3 left half).

Five steps, applied sequentially, each with survivor accounting so that
Table 1 can be regenerated:

1. **Incomplete** — drop LSPs with anonymous LSRs or missing endpoints.
2. **IntraAS** — every LSR address must map to one origin AS (the LSP is
   then attributed to it); inter-domain or mixed-origin LSPs are dropped.
3. **TargetAS** — the trace destination must live in a *different* AS
   than the tunnel (otherwise the tunnel does not carry transit traffic).
4. **TransitDiversity** — keep only IOTPs whose tunnels served at least
   two distinct destination ASes (multi-FEC potential by definition of
   destination-based routing).
5. **Persistence** — an LSP seen in cycle X must reappear in one of the
   follow-up snapshots X+1..X+j of the same month; if an AS loses almost
   all of its LSPs this way, the whole set is re-injected and the AS is
   tagged *dynamic* (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..net.ip2as import Ip2AsMapper, UNKNOWN_AS
from ..obs import get_registry, span
from .model import Iotp, IotpKey, Lsp, LspSignature, group_into_iotps

_LSPS_DROPPED = get_registry().counter(
    "lsps_dropped_total",
    "LSPs removed by each LPR filter stage")
_ASES_REINJECTED = get_registry().counter(
    "ases_reinjected_total",
    "ASes whose LSP set was re-injected as dynamic by Persistence")


@dataclass
class FilterStats:
    """Survivor counts after each filter, for one cycle."""

    extracted: int = 0
    after_incomplete: int = 0
    after_intra_as: int = 0
    after_target_as: int = 0
    after_transit_diversity: int = 0
    after_persistence: int = 0
    reinjected_ases: List[int] = field(default_factory=list)

    def proportions(self) -> Dict[str, float]:
        """Each stage's survivors as a share of extracted LSPs."""
        if self.extracted == 0:
            return {name: 0.0 for name in _STAGES}
        return {
            "incomplete": self.after_incomplete / self.extracted,
            "intra_as": self.after_intra_as / self.extracted,
            "target_as": self.after_target_as / self.extracted,
            "transit_diversity":
                self.after_transit_diversity / self.extracted,
            "persistence": self.after_persistence / self.extracted,
        }


_STAGES = ("incomplete", "intra_as", "target_as", "transit_diversity",
           "persistence")


def drop_incomplete(lsps: Iterable[Lsp]) -> List[Lsp]:
    """Filter 1: remove LSPs with anonymous LSRs or missing endpoints."""
    return [lsp for lsp in lsps if lsp.complete]


def intra_as(lsps: Iterable[Lsp], ip2as: Ip2AsMapper) -> List[Lsp]:
    """Filter 2: keep LSPs whose LSR addresses share one origin AS.

    Survivors come back annotated with their AS (``lsp.asn``).  All
    hop addresses go through one :meth:`~Ip2AsMapper.lookup_many`
    batch, so repeated interfaces cost one longest-prefix match per /24
    instead of one per hop observation.
    """
    lsps = list(lsps)
    flat = [address for lsp in lsps for address in lsp.addresses]
    asns = ip2as.lookup_many(flat)
    kept: List[Lsp] = []
    position = 0
    for lsp in lsps:
        count = len(lsp.hops)
        origins = set(asns[position:position + count])
        position += count
        if len(origins) != 1:
            continue
        asn = origins.pop()
        if asn == UNKNOWN_AS:
            continue
        kept.append(lsp.with_asn(asn))
    return kept


def target_as(lsps: Iterable[Lsp], ip2as: Ip2AsMapper) -> List[Lsp]:
    """Filter 3: the traceroute destination must be in a different AS."""
    lsps = list(lsps)
    dst_asns = ip2as.lookup_many([lsp.dst for lsp in lsps])
    return [
        lsp for lsp, dst_asn in zip(lsps, dst_asns)
        if dst_asn != lsp.asn
    ]


def transit_diversity(lsps: Sequence[Lsp], ip2as: Ip2AsMapper
                      ) -> Tuple[List[Lsp], Dict[IotpKey, Iotp]]:
    """Filter 4: keep IOTPs used towards >= 2 distinct destination ASes.

    Returns both the surviving LSP observations and the grouped IOTPs
    (which later stages reuse).
    """
    iotps = group_into_iotps(
        zip(lsps, ip2as.lookup_many([lsp.dst for lsp in lsps]))
    )
    diverse_keys = {
        key for key, iotp in iotps.items() if len(iotp.dst_asns) >= 2
    }
    kept = [
        lsp for lsp in lsps
        if (lsp.asn, lsp.entry, lsp.exit) in diverse_keys
    ]
    return kept, {key: iotp for key, iotp in iotps.items()
                  if key in diverse_keys}


@dataclass
class PersistenceOutcome:
    """Result of the persistence filter for one cycle."""

    kept: List[Lsp]
    dynamic_ases: List[int]


def persistence(lsps: Sequence[Lsp],
                follow_up_signatures: Sequence[Set[LspSignature]],
                reinject_threshold: float = 0.10) -> PersistenceOutcome:
    """Filter 5: LSPs must reappear in one of the follow-up snapshots.

    ``follow_up_signatures`` holds, per follow-up snapshot (X+1..X+j),
    the set of LSP signatures extracted there.  When an AS keeps fewer
    than ``reinject_threshold`` of its LSPs, the AS is assumed to change
    labels on purpose (dynamic TE, §4.5): its whole LSP set is
    re-injected and the AS is tagged dynamic.
    """
    if not follow_up_signatures:
        # No follow-up data at all: the filter is a no-op (j = 0).
        return PersistenceOutcome(kept=list(lsps), dynamic_ases=[])

    union: Set[LspSignature] = set()
    for signatures in follow_up_signatures:
        union |= signatures

    by_as: Dict[int, List[Lsp]] = {}
    for lsp in lsps:
        by_as.setdefault(lsp.asn, []).append(lsp)

    kept: List[Lsp] = []
    dynamic: List[int] = []
    for asn in sorted(by_as):
        candidates = by_as[asn]
        survivors = [lsp for lsp in candidates
                     if lsp.signature in union]
        if len(survivors) < reinject_threshold * len(candidates):
            kept.extend(candidates)
            dynamic.append(asn)
        else:
            kept.extend(survivors)
    return PersistenceOutcome(kept=kept, dynamic_ases=dynamic)


def run_filters(lsps: Sequence[Lsp], ip2as: Ip2AsMapper,
                follow_up_signatures: Sequence[Set[LspSignature]] = (),
                reinject_threshold: float = 0.10
                ) -> Tuple[Dict[IotpKey, Iotp], FilterStats]:
    """The full filtering pipeline for one cycle.

    Returns the cleaned IOTPs (rebuilt from the persistent LSPs, with
    dynamic ASes tagged) plus the per-stage survivor statistics.
    """
    stats = FilterStats(extracted=len(lsps))

    with span("filters.incomplete"):
        complete = drop_incomplete(lsps)
        stats.after_incomplete = len(complete)
        _LSPS_DROPPED.inc(stats.extracted - stats.after_incomplete,
                          filter="incomplete")

    with span("filters.intra_as"):
        mapped = intra_as(complete, ip2as)
        stats.after_intra_as = len(mapped)
        _LSPS_DROPPED.inc(stats.after_incomplete - stats.after_intra_as,
                          filter="intra_as")

    with span("filters.target_as"):
        transit = target_as(mapped, ip2as)
        stats.after_target_as = len(transit)
        _LSPS_DROPPED.inc(stats.after_intra_as - stats.after_target_as,
                          filter="target_as")

    with span("filters.transit_diversity"):
        diverse, grouped = transit_diversity(transit, ip2as)
        stats.after_transit_diversity = len(diverse)
        _LSPS_DROPPED.inc(
            stats.after_target_as - stats.after_transit_diversity,
            filter="transit_diversity")

    with span("filters.persistence"):
        outcome = persistence(diverse, follow_up_signatures,
                              reinject_threshold)
        stats.after_persistence = len(outcome.kept)
        stats.reinjected_ases = outcome.dynamic_ases
        _LSPS_DROPPED.inc(
            stats.after_transit_diversity - stats.after_persistence,
            filter="persistence")
        _ASES_REINJECTED.inc(len(outcome.dynamic_ases))

    if len(outcome.kept) == len(diverse):
        # Persistence dropped nothing (every survivor or a full
        # re-injection): the grouping TransitDiversity already built is
        # exactly the grouping of the kept set — reuse it instead of a
        # per-LSP lookup_single + regroup pass.
        iotps = grouped
    else:
        iotps = group_into_iotps(
            zip(outcome.kept,
                ip2as.lookup_many([lsp.dst for lsp in outcome.kept]))
        )
    dynamic_ases = set(outcome.dynamic_ases)
    for iotp in iotps.values():
        if iotp.asn in dynamic_ases:
            iotp.dynamic = True
    return iotps, stats
