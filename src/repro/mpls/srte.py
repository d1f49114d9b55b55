"""Segment Routing over MPLS (SR-MPLS) — the paper's §2.1 outlook.

Segment routing steers packets by stacking *node segment* labels: the
ingress pushes one label per waypoint (plus the egress), each label
being a globally-indexed SID from the AS's SRGB (Segment Routing Global
Block).  Packets follow IGP shortest paths towards the top label's node;
with penultimate-hop popping the label is removed one hop before each
waypoint, exposing the next segment.

Observable consequences (what LPR sees) differ from both LDP and
RSVP-TE:

* traceroute quotes *multi-entry* label stacks that shrink along the
  path;
* SIDs are global to the AS — the same label value appears on every
  LSR of a segment — yet two policies with different waypoint lists
  show different top labels at shared routers, the Multi-FEC signature.

The SRGB is configurable per deployment; the default here is placed
above the Juniper dynamic range so SID labels never collide with
LDP/RSVP-TE allocations in mixed networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..igp.ecmp import destination_draw, flow_hash
from ..igp.spf import SpfTable
from ..igp.topology import Link, Topology

DEFAULT_SRGB_BASE = 900_000


class SrError(RuntimeError):
    """Raised on invalid segment-routing configuration."""


@dataclass(frozen=True)
class SrPolicy:
    """One SR-TE policy: steer (ingress -> egress) via waypoints."""

    ingress: int
    egress: int
    waypoints: Tuple[int, ...]
    policy_id: int = 0

    @property
    def segment_targets(self) -> Tuple[int, ...]:
        """The node-segment endpoints, in travel order."""
        return self.waypoints + (self.egress,)


# One observed step of an SR walk:
# (router entered, link used, label stack on arrival — top first).
SrStep = Tuple[int, Link, Tuple[int, ...]]


class SegmentRoutingEngine:
    """Installs SR policies and walks their data-plane behaviour."""

    def __init__(self, topology: Topology, spf: SpfTable,
                 srgb_base: int = DEFAULT_SRGB_BASE):
        self.topology = topology
        self.spf = spf
        self.srgb_base = srgb_base
        self._policies: Dict[Tuple[int, int], List[SrPolicy]] = {}

    def node_sid(self, router_id: int) -> int:
        """The global node-segment label of a router (SRGB + index)."""
        if router_id not in self.topology.routers:
            raise SrError(f"unknown router {router_id}")
        return self.srgb_base + router_id

    def router_of_sid(self, label: int) -> Optional[int]:
        """Reverse SID lookup, None when outside the SRGB."""
        router_id = label - self.srgb_base
        if router_id in self.topology.routers:
            return router_id
        return None

    def install_policy(self, ingress: int, egress: int,
                       waypoints: Sequence[int]) -> SrPolicy:
        """Register a policy; waypoints must be known routers."""
        for waypoint in waypoints:
            if waypoint not in self.topology.routers:
                raise SrError(f"unknown waypoint {waypoint}")
        if ingress == egress:
            raise SrError("ingress and egress coincide")
        existing = self._policies.setdefault((ingress, egress), [])
        policy = SrPolicy(ingress=ingress, egress=egress,
                          waypoints=tuple(waypoints),
                          policy_id=len(existing))
        existing.append(policy)
        return policy

    def remove_policies(self, ingress: int, egress: int) -> int:
        """Drop every policy of one pair; returns how many existed."""
        return len(self._policies.pop((ingress, egress), []))

    def clear(self) -> None:
        """Drop every policy."""
        self._policies.clear()

    def capture_policies(self) -> tuple:
        """Picklable snapshot of the policy table, in install order
        (policies are frozen dataclasses of plain ints)."""
        return tuple((pair, tuple(policies))
                     for pair, policies in self._policies.items())

    def restore_policies(self, state: tuple) -> None:
        """Install a :meth:`capture_policies` snapshot."""
        self._policies = {pair: list(policies)
                          for pair, policies in state}

    @property
    def policy_count(self) -> int:
        """Total installed policies."""
        return sum(len(p) for p in self._policies.values())

    def policies_between(self, ingress: int, egress: int
                         ) -> List[SrPolicy]:
        """The policies of one ordered pair."""
        return list(self._policies.get((ingress, egress), []))

    def policy_for(self, ingress: int, egress: int,
                   selector: int) -> Optional[SrPolicy]:
        """Deterministically map a destination selector to a policy."""
        policies = self._policies.get((ingress, egress))
        if not policies:
            return None
        return policies[destination_draw(selector, ingress, egress)
                        % len(policies)]

    # -- data plane -----------------------------------------------------------

    def initial_stack(self, policy: SrPolicy) -> Tuple[int, ...]:
        """The label stack the ingress pushes (top first)."""
        return tuple(self.node_sid(target)
                     for target in policy.segment_targets)

    def walk(self, policy: SrPolicy, flow_digest: int) -> List[SrStep]:
        """The hop-by-hop journey of one flow riding a policy.

        Each step records the label stack *as received* by that router.
        Node-SID PHP applies per segment: the penultimate hop of each
        segment pops, so a waypoint receives the next segment's SID on
        top and the egress receives a bare IP packet.
        """
        steps: List[SrStep] = []
        stack = list(self.initial_stack(policy))
        current = policy.ingress
        for target in policy.segment_targets:
            if current == target:
                # Degenerate segment (waypoint already reached): the
                # ingress would not have pushed it; skip.
                stack.pop(0)
                continue
            dag = self.spf.to_destination(target)
            if not dag.reachable(current):
                raise SrError(
                    f"segment target {target} unreachable from {current}"
                )
            paths = dag.all_paths(current, limit=64)
            path = paths[flow_hash(flow_digest, current, target)
                         % len(paths)]
            for router, link in path:
                if router == target:
                    stack.pop(0)  # PHP: popped by the previous hop
                steps.append((router, link, tuple(stack)))
            current = target
        return steps
