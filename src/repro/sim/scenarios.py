"""The longitudinal measurement scenario reproducing the paper's universe.

Builds a scaled-down Internet with the paper's five focus ASes — Vodafone
(AS1273), AT&T (AS7018), Tata (AS6453), NTT (AS2914) and Level3 (AS3356) —
whose MPLS *configuration knobs* follow the timelines the paper observes,
plus background transits/stubs that provide traffic, filter food and the
global deployment growth of Fig 5.

The per-cycle class mixes of Figs 10–15 are NOT painted: scenarios only
turn protocol knobs (enable LDP, grow the RSVP-TE mesh, re-optimize,
partially deploy), and the classification shapes then *emerge* from the
simulated label distributions measured through traceroute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..bgp.asgraph import Tier
from .config import AsSpec, MplsPolicy, UniverseSpec

# The five focus ASes, with their real ASNs.
VODAFONE = 1273
ATT = 7018
TATA = 6453
NTT = 2914
LEVEL3 = 3356
# Background tier-1s.
GTT = 3257
TELIA = 1299

CYCLES = 60                      # Jan 2010 .. Dec 2014, monthly
LEVEL3_RISE_CYCLE = 29           # MPLS appears (paper Fig 15)
LEVEL3_FALL_CYCLE = 55           # sharp decrease starts
ATT_TRANSITION_CYCLE = 22        # IOTP drop / class transition (Fig 11)
MEASUREMENT_DIP_CYCLES = (23, 58)  # Archipelago issues (Fig 5b)


@dataclass
class CyclePlan:
    """Everything that varies at one measurement cycle."""

    cycle: int
    policies: Dict[int, MplsPolicy]
    monitor_fraction: float = 1.0
    dest_fraction: float = 1.0


@dataclass
class Scenario:
    """A universe plus its per-cycle evolution."""

    universe: UniverseSpec
    planner: Callable[[int], Dict[int, MplsPolicy]]
    cycles: int = CYCLES

    def plan(self, cycle: int) -> CyclePlan:
        """The plan for one 1-based cycle number."""
        if not 1 <= cycle <= self.cycles:
            raise ValueError(f"cycle {cycle} out of [1, {self.cycles}]")
        monitor_fraction = 0.6 + 0.4 * cycle / self.cycles
        dest_fraction = 0.7 + 0.3 * cycle / self.cycles
        if cycle in MEASUREMENT_DIP_CYCLES:
            monitor_fraction *= 0.55
            dest_fraction *= 0.80
        return CyclePlan(
            cycle=cycle,
            policies=self.planner(cycle),
            monitor_fraction=min(monitor_fraction, 1.0),
            dest_fraction=min(dest_fraction, 1.0),
        )


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(value * scale))


def check_scale(scale: float) -> None:
    """Raise ValueError unless ``scale`` is a finite number > 0.

    Every count clamps to its minimum below some positive scale, so a
    zero or negative scale would not fail by itself: it would quietly
    build the smallest universe under a spec hash of its own.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a finite number > 0, "
                         f"got {scale}")


def build_universe(scale: float = 1.0, seed: int = 2015) -> UniverseSpec:
    """The paper universe at a given size multiplier.

    ``scale`` multiplies router and prefix counts; 1.0 is the default used
    by the benchmark harness, smaller values make unit tests fast.  A
    scale that is not finite and > 0 raises ValueError
    (:func:`check_scale`).
    """
    check_scale(scale)
    ases: List[AsSpec] = [
        # -- focus ASes ------------------------------------------------
        AsSpec(LEVEL3, "Level3", Tier.TIER1,
               router_count=_scaled(36, scale, 8), border_count=8,
               vendor="cisco", ecmp_breadth=2, parallel_link_fraction=0.30,
               unresponsive_fraction=0.03, prefix_count=3),
        AsSpec(ATT, "AT&T", Tier.TIER1,
               router_count=_scaled(40, scale, 8), border_count=8,
               vendor="cisco", ecmp_breadth=2, parallel_link_fraction=0.15,
               unresponsive_fraction=0.04, prefix_count=3),
        AsSpec(NTT, "NTT", Tier.TIER1,
               router_count=_scaled(28, scale, 8), border_count=8,
               vendor="juniper", ecmp_breadth=1,
               parallel_link_fraction=0.05,
               unresponsive_fraction=0.03, prefix_count=2),
        AsSpec(TATA, "Tata", Tier.TIER1,
               router_count=_scaled(30, scale, 9), border_count=8,
               vendor="cisco", ecmp_breadth=2, parallel_link_fraction=0.75,
               unresponsive_fraction=0.03, prefix_count=2),
        AsSpec(VODAFONE, "Vodafone", Tier.TRANSIT,
               router_count=_scaled(14, scale, 6), border_count=6,
               vendor="juniper", ecmp_breadth=1,
               unresponsive_fraction=0.02, prefix_count=2),
        # -- background tier-1s ----------------------------------------
        AsSpec(GTT, "GTT", Tier.TIER1,
               router_count=_scaled(20, scale, 6), border_count=6,
               vendor="cisco", ecmp_breadth=2, parallel_link_fraction=0.2,
               unresponsive_fraction=0.03, prefix_count=2),
        AsSpec(TELIA, "Telia", Tier.TIER1,
               router_count=_scaled(20, scale, 6), border_count=6,
               vendor="cisco", ecmp_breadth=2,
               unresponsive_fraction=0.03, prefix_count=2),
    ]
    c2p: List[tuple] = []
    p2p: List[tuple] = []
    tier1s = [LEVEL3, ATT, NTT, TATA, GTT, TELIA]
    # Tier-1s interconnect at three PoPs each (multi-point peering:
    # listing a pair several times creates several inter-AS links on
    # distinct borders, multiplying the <Ingress, Egress> combinations).
    for position, left in enumerate(tier1s):
        for right in tier1s[position + 1:]:
            p2p += [(left, right)] * 3

    # Vodafone: a European transit under Level3 and NTT, two PoPs each.
    c2p += [(VODAFONE, LEVEL3)] * 2 + [(VODAFONE, NTT)] * 2

    # Background transit networks with assorted MPLS temperaments.
    transit_specs = [
        # (asn, vendor, ecmp, parallel, dark, foreign)
        (65101, "cisco", 2, 0.20, 0.03, 0.0),
        (65102, "juniper", 1, 0.00, 0.03, 0.0),
        (65103, "cisco", 2, 0.10, 0.03, 0.10),   # leased-space quirk
        (65104, "cisco", 1, 0.00, 0.04, 0.0),
        (65105, "legacy", 1, 0.00, 0.03, 0.0),   # no RFC4950: implicit
        (65106, "juniper", 2, 0.25, 0.03, 0.0),
        (65107, "cisco", 1, 0.00, 0.05, 0.0),
        (65108, "cisco", 2, 0.15, 0.03, 0.0),
    ]
    for offset, (asn, vendor, ecmp, parallel, dark, foreign) in \
            enumerate(transit_specs):
        ases.append(AsSpec(
            asn, f"Transit{offset + 1}", Tier.TRANSIT,
            router_count=_scaled(16, scale, 6), border_count=4,
            vendor=vendor, ecmp_breadth=ecmp,
            parallel_link_fraction=parallel,
            unresponsive_fraction=dark,
            foreign_address_fraction=foreign,
            prefix_count=2,
        ))
        uplinks = (tier1s[offset % 6], tier1s[(offset + 2) % 6])
        # Two sessions to the primary transit provider, one to the backup.
        c2p += [(asn, uplinks[0])] * 2 + [(asn, uplinks[1])]

    # Destination stubs: plain-IP edge networks announcing the /24s the
    # monitors probe.  Spread over every transit so that traces cross
    # all focus ASes.
    providers = [65101, 65102, 65103, 65104, 65105, 65106, 65107, 65108,
                 VODAFONE, VODAFONE, VODAFONE, VODAFONE, VODAFONE,
                 LEVEL3, LEVEL3, ATT, ATT, NTT, NTT, TATA, TATA,
                 GTT, TELIA, 65101, 65103, 65106, 65108, 65104]
    for offset, provider in enumerate(providers):
        asn = 65201 + offset
        ases.append(AsSpec(
            asn, f"Stub{offset + 1}", Tier.STUB,
            router_count=3, border_count=1, vendor="cisco",
            prefix_count=_scaled(5, scale, 2),
        ))
        c2p.append((asn, provider))
        if offset % 3 == 0:  # every third stub is multihomed
            backup = providers[(offset + 5) % len(providers)]
            if backup != provider:
                c2p.append((asn, backup))

    # Monitor stubs: vantage-point hosts, one per region/provider mix.
    monitor_ases = []
    for offset, provider in enumerate(
            [65101, 65102, 65103, 65105, 65106, 65108,
             VODAFONE, ATT, TATA]):
        asn = 65301 + offset
        ases.append(AsSpec(
            asn, f"MonitorNet{offset + 1}", Tier.STUB,
            router_count=3, border_count=1, vendor="cisco",
            prefix_count=1,
        ))
        c2p.append((asn, provider))
        monitor_ases.append(asn)

    return UniverseSpec(ases=ases, c2p_edges=c2p, p2p_edges=p2p,
                        monitor_ases=monitor_ases, seed=seed)


def _ramp(cycle: int, start: int, end: int, lo: float, hi: float) -> float:
    """Linear ramp from lo (at cycle<=start) to hi (at cycle>=end)."""
    if cycle <= start:
        return lo
    if cycle >= end:
        return hi
    return lo + (hi - lo) * (cycle - start) / (end - start)


def paper_policies(cycle: int) -> Dict[int, MplsPolicy]:
    """Per-AS MPLS policies for one cycle (1..60)."""
    policies: Dict[int, MplsPolicy] = {}

    # Vodafone (Fig 10): an RSVP-TE-only deployment, growing over time,
    # with frequent head-end re-optimization (dynamic labels, §4.5) —
    # the persistence filter deletes its whole LSP set every cycle, so
    # LPR re-injects and tags it dynamic, exactly the paper's AS1273
    # treatment (footnote 4).
    policies[VODAFONE] = MplsPolicy(
        enabled=True, ldp=False, ldp_internal=False,
        te_pair_fraction=_ramp(cycle, 1, 60, 0.45, 0.95),
        te_tunnels_per_pair=2,
        te_reoptimize_per_cycle=True,
    )

    # AT&T (Fig 11): partial-deployment shrink at the transition cycle
    # (the IOTP drop), Multi-FEC replacing Mono-FEC afterwards.
    if cycle < ATT_TRANSITION_CYCLE:
        policies[ATT] = MplsPolicy(
            enabled=True, ldp=True,
            te_pair_fraction=0.03, te_tunnels_per_pair=2,
            mpls_pair_fraction=0.85,
        )
    else:
        policies[ATT] = MplsPolicy(
            enabled=True, ldp=True,
            te_pair_fraction=_ramp(cycle, ATT_TRANSITION_CYCLE, 60,
                                   0.15, 0.60),
            te_tunnels_per_pair=2,
            mpls_pair_fraction=0.45,
        )

    # Tata (Figs 12–13): ECMP-heavy LDP (mesh + parallel bundles), usage
    # slowly declining, negligible TE.
    policies[TATA] = MplsPolicy(
        enabled=True, ldp=True,
        te_pair_fraction=0.04, te_tunnels_per_pair=2,
        mpls_pair_fraction=_ramp(cycle, 1, 60, 0.85, 0.55),
    )

    # NTT (Fig 14): Mono-LSP dominant, deployment tripling over the
    # period, a whiff of parallel-link ECMP.
    policies[NTT] = MplsPolicy(
        enabled=True, ldp=True,
        te_pair_fraction=0.02, te_tunnels_per_pair=2,
        mpls_pair_fraction=_ramp(cycle, 1, 60, 0.30, 0.95),
    )

    # Level3 (Figs 15–16): nothing, then a wide LDP deployment from the
    # rise cycle, then a sharp decrease near the end.
    if cycle < LEVEL3_RISE_CYCLE:
        policies[LEVEL3] = MplsPolicy(enabled=False)
    elif cycle < LEVEL3_FALL_CYCLE:
        policies[LEVEL3] = MplsPolicy(
            enabled=True, ldp=True,
            te_pair_fraction=0.05, te_tunnels_per_pair=2,
            mpls_pair_fraction=0.90,
        )
    else:
        policies[LEVEL3] = MplsPolicy(
            enabled=True, ldp=True,
            te_pair_fraction=0.05, te_tunnels_per_pair=2,
            mpls_pair_fraction=0.12,
        )

    # Background: GTT a partial always-on LDP island; Telia never
    # deploys (pure-IP tier-1s keep the Fig 5a share realistic).
    policies[GTT] = MplsPolicy(enabled=True, ldp=True,
                               mpls_pair_fraction=0.45)
    policies[TELIA] = MplsPolicy(enabled=False)

    # Background transits: a drip of MPLS adoption over the years
    # (Fig 5a's slope), one invisible deployment, one implicit one.
    policies[65101] = MplsPolicy(enabled=True, ldp=True,
                                 mpls_pair_fraction=0.60)
    policies[65102] = MplsPolicy(enabled=cycle >= 15, ldp=True,
                                 mpls_pair_fraction=0.70)
    policies[65103] = MplsPolicy(enabled=True, ldp=True,
                                 mpls_pair_fraction=0.50)
    policies[65104] = MplsPolicy(enabled=cycle >= 40, ldp=True,
                                 mpls_pair_fraction=0.80)
    policies[65105] = MplsPolicy(enabled=True, ldp=True)  # no RFC4950
    policies[65106] = MplsPolicy(
        enabled=True, ldp=True, ttl_propagate=False,  # invisible tunnels
    )
    policies[65107] = MplsPolicy(enabled=False)
    # 65108 is the early adopter: RSVP-TE from cycle 8, plus a small
    # SR-MPLS pilot near the end of the study (segment routing drafts
    # date from 2014 — the paper's §2.1 outlook).
    policies[65108] = MplsPolicy(enabled=cycle >= 8, ldp=True,
                                 te_pair_fraction=0.10,
                                 te_tunnels_per_pair=3,
                                 mpls_pair_fraction=0.70,
                                 sr_pair_fraction=(0.15 if cycle >= 52
                                                   else 0.0),
                                 sr_policies_per_pair=2,
                                 sr_waypoints=1)
    return policies


def paper_scenario(scale: float = 1.0, seed: int = 2015) -> Scenario:
    """The full 60-cycle scenario behind every benchmark."""
    return Scenario(universe=build_universe(scale=scale, seed=seed),
                    planner=paper_policies, cycles=CYCLES)
