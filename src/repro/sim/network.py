"""Assembly of the simulated Internet.

:class:`Internet` owns the AS graph, one :class:`AsNetwork` per AS (router
topology + IGP + MPLS control planes), the global addressing plan, and the
Routeviews-style IP2AS table.  The builder is fully deterministic: the same
:class:`~repro.sim.config.UniverseSpec` and seed produce byte-identical
networks, labels and addresses.

Addressing plan (all derived from the AS's index ``i`` in the spec list):

* infrastructure block ``10.i.0.0/16``:
  loopbacks in ``10.i.0.0/24``, internal link /31s from ``10.i.16.0/20``,
  inter-AS link /31s from ``10.i.240.0/20`` (owned by the lower-ASN side);
* originated (destination) prefixes ``50.i.j.0/24``;
* the "foreign addressing quirk": a fraction of internal link subnets is
  carved from ``172.16.i.0/24`` and registered in IP2AS under a different
  origin ASN, as happens with leased address space in the wild — LSPs
  crossing such links resolve to two origins and exercise LPR's IntraAS
  filter.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..bgp.asgraph import AsGraph, AsNode, Tier
from ..bgp.routing import BgpRouting
from ..igp.ecmp import flow_hash
from ..igp.spf import SpfResult, SpfTable, spf_to
from ..igp.topology import Link, Router, Topology
from ..mpls.fec import PrefixFec
from ..mpls.ldp import LdpEngine
from ..mpls.lfib import LabelManager
from ..mpls.rsvpte import RsvpTeEngine, TeSession
from ..mpls.srte import SegmentRoutingEngine
from ..net.ip import Prefix, ip_to_int
from ..net.ip2as import Ip2AsMapper
from ..traces import gc_paused
from .config import AsSpec, MplsPolicy, UniverseSpec

_TEN = ip_to_int("10.0.0.0")
_DEST_BASE = ip_to_int("50.0.0.0")
_FOREIGN_BASE = ip_to_int("172.16.0.0")
_FOREIGN_ASN_BASE = 64512


def infra_block(as_index: int) -> Prefix:
    """The 10.i.0.0/16 infrastructure block of AS index ``i``."""
    return Prefix(_TEN + (as_index << 16), 16)


def loopback_address(as_index: int, router_id: int) -> int:
    """Loopback of one router (10.i.0.router+1)."""
    return _TEN + (as_index << 16) + router_id + 1


def destination_prefix(as_index: int, prefix_index: int) -> Prefix:
    """The j-th /24 originated by AS index ``i`` (50.i.j.0/24)."""
    return Prefix(_DEST_BASE + (as_index << 16) + (prefix_index << 8), 24)


class _SubnetPool:
    """Hands out consecutive /31 link subnets from a base address."""

    def __init__(self, base: int):
        self._next = base

    def pair(self) -> Tuple[int, int]:
        a = self._next
        self._next += 2
        return a, a + 1


class AsNetwork:
    """One AS: topology, IGP, MPLS control planes, per-cycle policy."""

    def __init__(self, spec: AsSpec, as_index: int,
                 rng: random.Random):
        self.spec = spec
        self.as_index = as_index
        self.topology = self._build_topology(rng)
        self.spf = SpfTable(self.topology)
        self.policy = MplsPolicy(enabled=False)
        self.labels: Optional[LabelManager] = None
        self.ldp: Optional[LdpEngine] = None
        self.rsvp: Optional[RsvpTeEngine] = None
        self.sr: Optional[SegmentRoutingEngine] = None
        # (ingress, egress) border pairs eligible for TE, in a stable
        # shuffled order so a growing te_pair_fraction adds pairs at the
        # end without disturbing existing ones.
        self._te_pair_order = self._stable_pair_order()
        self._te_active: Dict[Tuple[int, int], int] = {}  # pair -> count
        # Last reconciled (TE, SR) policy signatures: a cycle whose
        # policy is unchanged skips the whole reconciliation pass
        # (None = never reconciled / engines rebuilt).
        self._te_signature: Optional[tuple] = None
        self._sr_signature: Optional[tuple] = None
        # attachment router of each originated prefix index
        self.attachments: Dict[int, int] = self._assign_attachments()
        # Per-AS links to neighbors: asn -> list of
        # (local router, local addr, remote asn, remote router, remote addr)
        self.interas: Dict[int, List[Tuple[int, int, int, int, int]]] = {}
        self.foreign_links: List[int] = []  # link ids on leased space
        # Round-robin counters for inter-AS border allocation.
        self.border_rr: Dict[str, int] = {"access": 0, "core": 0}

    # -- construction -------------------------------------------------------

    def _build_topology(self, rng: random.Random) -> Topology:
        spec = self.spec
        topology = Topology(asn=spec.asn)
        for router_id in range(spec.router_count):
            topology.add_router(Router(
                router_id=router_id,
                loopback=loopback_address(self.as_index, router_id),
                vendor=spec.vendor,
                is_border=router_id < spec.border_count,
                responsive=True,
            ))
        # Mark the unresponsive share among non-border routers first
        # (borders are IOTP endpoints; keeping them responsive keeps the
        # simulated incompleteness inside LSPs, where the paper sees it).
        core_ids = list(range(spec.border_count, spec.router_count))
        rng.shuffle(core_ids)
        dark_count = round(spec.unresponsive_fraction * spec.router_count)
        for router_id in core_ids[:dark_count]:
            topology.routers[router_id].responsive = False

        pool = _SubnetPool(_TEN + (self.as_index << 16) + (16 << 8))
        if spec.ecmp_breadth <= 1 or spec.router_count < 4:
            self._wire_tree(topology, rng, pool)
        else:
            self._wire_mesh(topology, rng, pool)
        self._double_links(topology, rng, pool)
        topology.validate()
        return topology

    def _wire_tree(self, topology: Topology, rng: random.Random,
                   pool: _SubnetPool) -> None:
        """Random core tree + chords with unequal costs: no ECMP.

        Borders hang off core routers (never off each other), so every
        border-to-border transit crosses at least one core LSR and the
        tunnel is visible in traceroute even under PHP.
        """
        spec = self.spec
        costs = [2, 3, 5, 7, 11, 13]

        def connect(left: int, right: int, cost: int) -> None:
            a, b = pool.pair()
            topology.add_link(left, right, a, b, cost=cost)

        core = list(range(spec.border_count, spec.router_count))
        if not core:
            # Degenerate spec: all routers are borders; plain tree.
            for router_id in range(1, spec.router_count):
                connect(rng.randrange(router_id), router_id,
                        rng.choice(costs))
            return
        # Parent choice is biased towards early nodes: hub-and-spoke
        # cores with short diameters, as in real (PoP-centred) ISPs.
        for position in range(1, len(core)):
            parent = core[rng.randrange(max(1, (position + 2) // 3))]
            connect(parent, core[position], rng.choice(costs))
        for border in range(spec.border_count):
            connect(border, rng.choice(core), rng.choice(costs))
        # Core chords for redundancy and short diameters (high odd
        # costs keep paths unique, so no accidental ECMP).
        for _ in range(max(1, len(core) // 2)):
            left = rng.choice(core)
            right = rng.choice(core)
            if left != right and not topology.links_between(left, right):
                connect(left, right, rng.choice(costs) * 4 + 1)

    def _wire_mesh(self, topology: Topology, rng: random.Random,
                   pool: _SubnetPool) -> None:
        """Unit-cost mesh core: equal-cost paths that partially overlap.

        A random unit-cost backbone over the core routers plus extra
        chords whose density grows with ``ecmp_breadth``; borders
        dual-home into the core.  Equal-cost alternatives in such a mesh
        typically share segments, so ECMP diversity lands in the
        classifiable Mono-FEC patterns (with the fully-disjoint
        Unclassified corner case staying marginal, as in the paper).
        """
        spec = self.spec
        core = list(range(spec.border_count, spec.router_count))
        if not core:
            self._wire_tree(topology, rng, pool)
            return

        def connect(left: int, right: int, cost: int = 1) -> None:
            a, b = pool.pair()
            topology.add_link(left, right, a, b, cost=cost)

        # Random unit-cost backbone over the core.
        for position in range(1, len(core)):
            connect(core[rng.randrange(position)], core[position])
        # Chords add equal-cost alternatives; density scales with the
        # requested breadth.  A share of them are cost-2 "express" links:
        # one express hop costs the same as two backbone hops, producing
        # the equal-cost-but-unequal-hop-count branches behind the
        # paper's unbalanced (symmetry > 0) IOTPs.
        chord_count = round(len(core)
                            * (0.5 + 0.9 * (spec.ecmp_breadth - 1)))
        for ordinal in range(chord_count):
            if ordinal % 3 == 2:
                # Express shortcut over an existing two-hop path: a-b at
                # cost 2 in parallel with a-c-b at cost 1+1 is an exact
                # cost tie with different hop counts.
                via = rng.choice(core)
                neighbors = sorted({
                    nbr for nbr, link in topology.neighbors(via)
                    if link.cost == 1 and nbr >= spec.border_count
                })
                if len(neighbors) >= 2:
                    left, right = rng.sample(neighbors, 2)
                    if not topology.links_between(left, right):
                        connect(left, right, cost=2)
                continue
            left = rng.choice(core)
            right = rng.choice(core)
            if left != right and not topology.links_between(left, right):
                connect(left, right)
        # Borders attach to the core over one uplink each.  A single
        # attachment keeps the LER's reply address stable whatever ECMP
        # branch the probe took (otherwise every <Ingress, Egress> pair
        # would fragment into per-interface IOTPs); path diversity comes
        # from the core mesh between the attachment routers.  A few
        # borders dual-home: their outbound LSPs fan out immediately and
        # may stay router-disjoint to the very end — the corner case
        # behind the paper's (marginal) Unclassified class.
        for border in range(spec.border_count):
            first = core[rng.randrange(len(core))]
            connect(border, first)
            if len(core) > 1 and rng.random() < 0.2:
                second = core[rng.randrange(len(core))]
                if second == first:
                    second = core[(core.index(first) + 1) % len(core)]
                connect(border, second)

    def _double_links(self, topology: Topology, rng: random.Random,
                      pool: _SubnetPool) -> None:
        """Duplicate a fraction of links into parallel bundles."""
        fraction = self.spec.parallel_link_fraction
        if fraction <= 0:
            return
        for link in sorted(topology.links.values(),
                           key=lambda l: l.link_id):
            if rng.random() < fraction:
                a, b = pool.pair()
                topology.add_link(link.router_a, link.router_b, a, b,
                                  cost=link.cost)

    def _stable_pair_order(self) -> List[Tuple[int, int]]:
        borders = sorted(r.router_id
                         for r in self.topology.border_routers())
        pairs = [(i, e) for i in borders for e in borders if i != e]
        # Stable shuffle keyed on the ASN only: growing the TE fraction
        # over cycles extends the active prefix of this list.
        pairs.sort(key=lambda pair: flow_hash(self.spec.asn, *pair))
        return pairs

    def _assign_attachments(self) -> Dict[int, int]:
        count = self.spec.router_count
        first_core = min(self.spec.border_count, count - 1)
        return {
            j: first_core + (flow_hash(self.spec.asn, 17, j)
                             % max(1, count - first_core))
            for j in range(self.spec.prefix_count)
        }

    # -- MPLS policy lifecycle ----------------------------------------------

    def apply_policy(self, policy: MplsPolicy) -> None:
        """Move the AS to a new MPLS configuration.

        Enabling builds the control planes (LDP LSP-trees to every border
        and to the attachment routers, plus the configured TE mesh);
        disabling tears everything down and forgets all labels.
        """
        if not policy.enabled:
            self.labels = None
            self.ldp = None
            self.rsvp = None
            self.sr = None
            self._te_active.clear()
            self._te_signature = None
            self._sr_signature = None
            self.policy = policy
            return

        if self.labels is None:
            self._build_control_planes()
        if policy.ldp:
            self.ldp.establish_transit_fecs()
            if policy.ldp_internal:
                for attachment in sorted(set(self.attachments.values())):
                    self.ldp.establish_fec(attachment)
        self._sync_te(policy)
        self._sync_sr(policy)
        self.policy = policy

    def _build_control_planes(self) -> None:
        """Fresh, empty MPLS engines over the (immutable) topology."""
        self.labels = LabelManager({
            router_id: router.vendor
            for router_id, router in self.topology.routers.items()
        })
        self.ldp = LdpEngine(self.topology, self.spf, self.labels)
        self.rsvp = RsvpTeEngine(self.topology, self.spf, self.labels)
        self.sr = SegmentRoutingEngine(self.topology, self.spf)
        self._te_signature = None
        self._sr_signature = None

    def _sync_te(self, policy: MplsPolicy) -> None:
        # The wanted map is a pure function of these two knobs (the
        # pair order is fixed at construction), and nothing else ever
        # changes the active-pair set — so an unchanged signature means
        # the whole reconciliation below would be a no-op.
        signature = (policy.te_pair_fraction,
                     policy.te_tunnels_per_pair)
        if signature == self._te_signature:
            return
        wanted_pairs = int(round(policy.te_pair_fraction
                                 * len(self._te_pair_order)))
        wanted = {
            pair: policy.te_tunnels_per_pair
            for pair in self._te_pair_order[:wanted_pairs]
        }
        # Tear down pairs (or surplus tunnels) no longer wanted; a
        # pair that keeps or gains tunnels is left to the signal loop.
        for pair in sorted(self._te_active):
            current = self._te_active[pair]
            target = wanted.get(pair, 0)
            for tunnel_id in range(target, current):
                self.rsvp.teardown(pair[0], pair[1], tunnel_id)
            if target == 0:
                del self._te_active[pair]
            elif target < current:
                self._te_active[pair] = target
        # Signal new tunnels.
        for pair in sorted(wanted):
            current = self._te_active.get(pair, 0)
            for tunnel_id in range(current, wanted[pair]):
                self.rsvp.signal(pair[0], pair[1], tunnel_id)
            self._te_active[pair] = wanted[pair]
        self._te_signature = signature

    def _sync_sr(self, policy: MplsPolicy) -> None:
        """Reconcile the SR policy set with the cycle's configuration.

        Policies are rebuilt from scratch (they carry no allocator
        state — node SIDs are static), with waypoints drawn
        deterministically from the core so the same configuration
        always yields the same policies.  Because the rebuilt table is
        a pure function of the policy knobs, an unchanged signature
        skips the rebuild entirely.
        """
        if self.sr is None:
            return
        signature = (policy.uses_sr, policy.sr_pair_fraction,
                     policy.sr_policies_per_pair, policy.sr_waypoints)
        if signature == self._sr_signature:
            return
        self.sr.clear()
        if policy.uses_sr:
            wanted_pairs = int(round(policy.sr_pair_fraction
                                     * len(self._te_pair_order)))
            core = sorted(
                router_id
                for router_id, router in self.topology.routers.items()
                if not router.is_border
            ) or sorted(self.topology.routers)
            for ingress, egress in self._te_pair_order[:wanted_pairs]:
                for policy_id in range(policy.sr_policies_per_pair):
                    waypoints = []
                    for slot in range(policy.sr_waypoints):
                        pick = core[
                            flow_hash(self.spec.asn, 0x5E6, ingress,
                                      egress, policy_id, slot)
                            % len(core)
                        ]
                        if pick not in (ingress, egress) \
                                and pick not in waypoints:
                            waypoints.append(pick)
                    self.sr.install_policy(ingress, egress, waypoints)
        self._sr_signature = signature

    def tick(self) -> None:
        """Per-cycle timer actions (TE head-end re-optimization)."""
        if self.policy.te_reoptimize_per_cycle and self.rsvp is not None:
            self.rsvp.reoptimize_all()

    # -- lookup helpers used by the data plane ------------------------------

    def ldp_pair_active(self, entry: int, egress: int,
                        decisions: "DecisionCache") -> bool:
        """Whether transit between two borders rides LSPs this cycle.

        The active pair set is keyed on a stable hash, so raising
        ``mpls_pair_fraction`` over cycles only ever *adds* pairs —
        existing tunnels persist, as in an incremental deployment.
        The hash draw is era-invariant, so ``decisions`` (the
        DataPlane's :class:`DecisionCache`) holds it; the comparison
        against this cycle's fraction stays per call.
        """
        fraction = self.policy.mpls_pair_fraction
        if fraction >= 1.0:
            return True
        if fraction <= 0.0:
            return False
        draws = decisions.ldp_draws
        key = (self.spec.asn, entry, egress)
        draw = draws.get(key)
        if draw is None:
            draw = draws[key] = \
                flow_hash(self.spec.asn, 0x1D9, entry, egress) % 10_000
        return draw < fraction * 10_000

    def churn_labels(self, per_router: int) -> None:
        """Advance every allocator, modelling unobserved signalling load.

        Routers carrying more TE sessions are advanced proportionally
        further — a busy LSR's label counter climbs faster (paper §4.5's
        reading of Fig 17, where LSR2 outpaces LSR1).

        Each allocator advances in closed form
        (:meth:`~repro.mpls.lfib.LabelAllocator.advance`) — exactly
        equivalent to ``count`` allocate/release pairs, at O(log space)
        instead of O(count) per router.
        """
        if self.labels is None:
            return
        load: Dict[int, int] = {}
        if self.rsvp is not None:
            for session in self.rsvp.sessions:
                for router in session.labels:
                    load[router] = load.get(router, 0) + 1
        for router_id in sorted(self.labels.allocators):
            allocator = self.labels.allocators[router_id]
            allocator.advance(per_router * (1 + load.get(router_id, 0)))

    # -- control-plane snapshots --------------------------------------------

    def capture_state(self) -> Dict[str, object]:
        """Picklable snapshot of everything the cycles mutate.

        The topology, addressing and pair orders are immutable after
        construction (pure functions of the spec), so only the evolving
        control-plane state travels: the active policy, the TE pair
        map, the sync memo signatures and — when MPLS is enabled — the
        label allocators/LFIBs and the LDP/RSVP-TE/SR engine state.  A
        ``shape`` fingerprint guards against restoring onto a different
        topology.
        """
        mpls = None
        if self.labels is not None:
            mpls = {
                "labels": self.labels.capture(),
                "ldp": self.ldp.capture_established(),
                "rsvp": self.rsvp.capture_sessions(),
                "sr": self.sr.capture_policies(),
            }
        return {
            "shape": (len(self.topology.routers),
                      len(self.topology.links)),
            "policy": self.policy,
            "te_active": dict(self._te_active),
            "te_signature": self._te_signature,
            "sr_signature": self._sr_signature,
            "mpls": mpls,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Install a :meth:`capture_state` snapshot onto this AS.

        Engines are rebuilt fresh (exactly as :meth:`apply_policy`
        would) and their captured state installed on top, with TE
        routes re-interned against this instance's topology links —
        so continuing from a restored state is byte-identical to
        continuing from the originally captured one (asserted in
        ``tests/test_statestore.py``).
        """
        shape = (len(self.topology.routers), len(self.topology.links))
        if state["shape"] != shape:
            raise ValueError(
                f"AS{self.asn}: snapshot shape {state['shape']} does "
                f"not match topology {shape}")
        self.policy = state["policy"]
        self._te_active = dict(state["te_active"])
        mpls = state["mpls"]
        if mpls is None:
            self.labels = None
            self.ldp = None
            self.rsvp = None
            self.sr = None
            self._te_signature = None
            self._sr_signature = None
            return
        self._build_control_planes()
        self.labels.restore(mpls["labels"])
        self.ldp.restore_established(mpls["ldp"])
        self.rsvp.restore_sessions(mpls["rsvp"])
        self.sr.restore_policies(mpls["sr"])
        self._te_signature = state["te_signature"]
        self._sr_signature = state["sr_signature"]

    def te_sessions(self, ingress: int, egress: int
                    ) -> Tuple[Optional[TeSession], ...]:
        """The pair's active TE tunnels, indexed by tunnel id (None
        where a tunnel has no signalled session); empty when the pair
        has none.  Destinations spread over them by
        :func:`~repro.igp.ecmp.destination_draw`."""
        count = self._te_active.get((ingress, egress), 0)
        return tuple(self.rsvp.session(ingress, egress, tunnel_id)
                     for tunnel_id in range(count))

    def loopback_fec(self, router: int) -> PrefixFec:
        """The LDP FEC of one router's loopback /32."""
        return PrefixFec(Prefix(self.topology.routers[router].loopback, 32))

    def transit_fec(self, fec: PrefixFec) -> Optional[PrefixFec]:
        """``fec`` (a :meth:`loopback_fec`) if LDP has established it
        in this AS this cycle, else None."""
        if self.ldp is None:
            return None
        return fec if self.ldp.egress_of(fec) is not None else None

    def attachment_of(self, prefix_index: int) -> int:
        """Router a destination prefix hangs off."""
        return self.attachments[prefix_index]

    @property
    def asn(self) -> int:
        return self.spec.asn

    def __repr__(self) -> str:
        return (f"AsNetwork(asn={self.spec.asn}, "
                f"routers={len(self.topology.routers)}, "
                f"mpls={'on' if self.policy.enabled else 'off'})")


class SpfSegments(list):
    """Step lists recomputed by SPF under one era's withdrawn links.

    Unlike intact step lists, they live only as long as that era's
    flap draw, so hop tuples built over them are era-scoped too."""

    __slots__ = ()


class SegmentCache:
    """Equal-cost segment sets, shared across the forwarding plane.

    A *segment* is one ``[(router, link), ...]`` step sequence between
    two routers of an AS.  Intact segments depend only on the intra-AS
    topology (immutable after construction) — never on MPLS state — so
    a single cache serves every :class:`~repro.sim.dataplane.DataPlane`
    of a whole study: snapshots, cycles and post-study campaigns all
    hit the same entries instead of re-enumerating DAG paths per era.

    Segments under links withdrawn from the IGP (one era's flap draw)
    are never stored here: they live as long as that draw, on the
    era's walk plans.  A flap off the pair's shortest-path DAG is
    served the intact list itself; one that leaves an intact shortest
    path standing is served the surviving intact step lists; only a
    flap that cuts every intact shortest path, or one on a truncated
    intact list, runs SPF (tallied in ``spf_runs``), and its step
    lists are fresh :class:`SpfSegments`.
    """

    SEGMENT_LIMIT = 64

    def __init__(self) -> None:
        # (asn, entry, target) -> segments on the intact topology
        self._base: Dict[Tuple[int, int, int], List[list]] = {}
        # (asn, entry, target) -> link ids of the intact DAG from entry
        self._dag_links: Dict[Tuple[int, int, int], frozenset] = {}
        # Plain-int tallies.  Deliberately not registry counters: the
        # cache is shared internet-wide across eras and worker layouts,
        # so its totals are per-process observability, inspected
        # directly by tests and benchmarks.
        self.base_hits = 0
        self.base_misses = 0
        self.spf_runs = 0

    def base_segments(self, network: AsNetwork, entry: int,
                      target: int) -> List[list]:
        """Segments on the intact topology (warm SpfTable underneath)."""
        key = (network.asn, entry, target)
        segments = self._base.get(key)
        if segments is None:
            self.base_misses += 1
            dag = network.spf.to_destination(target)
            segments = dag.all_paths(entry, limit=self.SEGMENT_LIMIT)
            self._base[key] = segments
        else:
            self.base_hits += 1
        return segments

    def degraded_segments(self, network: AsNetwork, entry: int,
                          target: int, excluded: frozenset
                          ) -> List[list]:
        """Segments with some links withdrawn (transient flaps).

        When no excluded link lies on the intact shortest-path DAG
        reachable from ``entry``, this returns the intact segments
        themselves (the very :meth:`base_segments` list), because the
        degraded DAG restricted to ``entry`` is identical.  Removing
        links never shortens a distance, and every shortest path from
        the sub-DAG survives, so no distance on the sub-DAG changes.
        Each sub-DAG router therefore keeps exactly its successors: the
        intact ones (their links and next hops are untouched) and no
        new ones (a neighbor's distance can only have grown).
        Successor lists are sorted by ``(neighbor, link_id)``, so
        ``all_paths`` enumerates the same list in the same order.

        When some intact shortest path avoids every excluded link (and
        the intact list is complete, i.e. shorter than
        ``SEGMENT_LIMIT``), ``entry``'s distance is unchanged, so the
        degraded DAG's paths from ``entry`` are exactly the intact
        shortest paths that avoid the excluded links.  Both DFS
        enumerations follow ``(neighbor, link_id)`` order, so the
        surviving intact step lists, in intact order, are the answer:
        a new list of the very intact step-list objects.

        Otherwise the DAG is recomputed without the excluded links,
        falling back to the intact segments when the exclusion would
        disconnect the pair — a flap on the only path reconverges before
        traffic is affected at our observation timescale.  Nothing is
        stored per excluded set: the caller keeps the result for as long
        as its flap draw lasts.
        """
        pair = (network.asn, entry, target)
        links = self._dag_links.get(pair)
        if links is None:
            links = self._dag_links[pair] = _dag_link_ids(
                network.spf.to_destination(target), entry)
        base = self.base_segments(network, entry, target)
        if links.isdisjoint(excluded):
            return base
        if len(base) < self.SEGMENT_LIMIT:
            surviving = [steps for steps in base if excluded.isdisjoint(
                [link.link_id for _router, link in steps])]
            if surviving:
                return surviving
        self.spf_runs += 1
        segments = spf_to(network.topology, target,
                          excluded_links=excluded).all_paths(
                              entry, limit=self.SEGMENT_LIMIT)
        return SpfSegments(segments) if segments else base


class Forgetful(dict):
    """A table that keeps nothing: storing is a no-op, so every
    ``get`` misses and each decision is computed afresh."""

    __slots__ = ()

    def __setitem__(self, key, value) -> None:
        pass


class DecisionCache:
    """Era-invariant forwarding decisions, shared by a study's DataPlanes.

    Every table maps the inputs of one decision to its result and is a
    pure function of state fixed once :class:`Internet` is built: the
    IP2AS table and AS graph (foreign quirks are applied in
    ``Internet.__init__``), the inter-AS links, router vendors and
    responsiveness, and the stable hashes.  Nothing here depends on the
    era, and MPLS state enters only through the keys of ``ldp_hops``,
    so one cache serves every snapshot, cycle and post-study campaign
    of a universe (DESIGN §8, *study-scoped decisions*).  Per-era
    draws — link flaps, egress churn, loss and RTT — are never stored
    here, and neither are a snapshot's walk plans (which tunnel,
    policy, FEC or segment list a pair uses): those live on the
    DataPlane of that snapshot.  ``selectors`` keeps only the
    era-invariant destination draw that splits a pair's tunnels or
    policies; the era's option count takes its modulus.

    Two tables hold the endpoint hops every trace shows, as flyweights:
    ``gateway_hops`` the monitor's first-hop gateway, keyed by the
    ``(gateway address, asn, router)`` it is built from, and
    ``host_hops`` the destination host, keyed by its address (whose
    origin AS is fixed by the IP2AS table).

    Two more hold materialized per-AS hop tuples, each entry as
    ``(steps, hops)`` so a hit is checked by identity against the
    segment it was built from (the entry keeps that list alive, so its
    ``id`` cannot be reused by another one):

    * ``ip_hops`` — plain IP forwarding along one segment, a function
      of the steps alone (addresses, responsiveness and vendor are
      fixed at construction);
    * ``ldp_hops`` — one LDP LSP along a segment, keyed further by the
      AS's :attr:`~repro.mpls.lfib.LabelManager.generation` and
      ``ttl_propagate``.  Within one LabelManager, LDP bindings are
      append-only (establishing a FEC is idempotent, nothing releases
      one, RSVP-TE binds only its own session FECs), and every rebuild
      — re-enabling MPLS, ``restore_state`` — makes a new manager.

    Both key only intact step lists, which live as long as the study.
    TE hops, and IP or LDP hops over step lists SPF rebuilt for one
    era's flaps, stay per era (the DataPlane's own tables); SR hops are
    never cached.

    ``stacks`` holds decoded RFC 4950 stacks in two generations: the
    current probed cycle's table and ``stacks_prior``, the previous
    one's.  A stack found only in the prior table is copied forward,
    and :meth:`age_stacks`, called as each probed cycle starts, drops
    the older generation, so a stack lives while some probe quoted it
    in the current or the previous cycle.  RSVP-TE re-signals its
    labels every cycle, so a study-long table would keep every
    cycle's TE stacks (DESIGN §8, *decoded stacks live two cycles*).
    Drivers that never call :meth:`age_stacks` keep one study-long
    table.

    Derived data only: it never enters :meth:`Internet.capture_state`.
    ``table`` is the type of every table; a ``DataPlane(memoize=False)``
    runs the same code over its own cache of :class:`Forgetful` ones.
    """

    __slots__ = ("routes", "egress", "border_hops", "flow_digests",
                 "picks", "selectors", "ldp_draws", "fecs", "stacks",
                 "stacks_prior", "gateway_hops", "host_hops", "ip_hops",
                 "ldp_hops")

    def __init__(self, table: type = dict) -> None:
        # (src_asn, dst_addr >> 8) -> (dst origin | None, AS path tuple
        # | None, dst /24 Prefix); origin None = no simulated AS, path
        # None = no route.
        self.routes: Dict[Tuple[int, int], tuple] = table()
        # (asn, next_asn, dst /24 network) -> base egress link index
        # (multi-link neighbors only; churn is drawn per era on top).
        self.egress: Dict[Tuple[int, int, int], int] = table()
        # (asn, next_asn, link index) -> the neighbor border's HopObs.
        self.border_hops: Dict[Tuple[int, int, int], object] = table()
        # (src, dst, flow_id) -> flow digest.
        self.flow_digests: Dict[Tuple[int, int, int], int] = table()
        # (flow digest, asn, entry, target) -> 64-bit ECMP pick hash;
        # the era's segment count only takes its modulus.
        self.picks: Dict[Tuple[int, int, int, int], int] = table()
        # (dst /24 network, asn, ingress, egress) -> 64-bit destination
        # draw over the pair's TE tunnels or SR policies; the era's
        # option count only takes its modulus.
        self.selectors: Dict[Tuple[int, int, int, int], int] = table()
        # (asn, entry, egress) -> LDP pair draw in [0, 10000).
        self.ldp_draws: Dict[Tuple[int, int, int], int] = table()
        # (asn, router) -> the router's loopback PrefixFec.
        self.fecs: Dict[Tuple[int, int], PrefixFec] = table()
        # (quoted labels, LSE-TTL) -> decoded RFC 4950 stack, quoted
        # in this probed cycle; the previous cycle's in stacks_prior.
        self.stacks: Dict[Tuple[Tuple[int, ...], int], tuple] = table()
        self.stacks_prior: Dict[Tuple[Tuple[int, ...], int], tuple] = \
            table()
        # (gateway address, asn, router) -> the monitor gateway's
        # HopObs; destination address -> the destination host's.
        self.gateway_hops: Dict[Tuple[int, int, int], object] = table()
        self.host_hops: Dict[int, object] = table()
        # id(steps) -> (steps, plain IP HopObs tuple).
        self.ip_hops: Dict[int, tuple] = table()
        # (id(steps), label generation, ttl_propagate) -> (steps, LDP
        # HopObs tuple).
        self.ldp_hops: Dict[Tuple[int, int, bool], tuple] = table()

    def age_stacks(self) -> None:
        """Start a generation of ``stacks``: the current table becomes
        the prior one and the older generation is dropped."""
        self.stacks_prior = self.stacks
        self.stacks = type(self.stacks)()


def _dag_link_ids(dag: SpfResult, entry: int) -> frozenset:
    """Link ids of every successor edge reachable from ``entry``."""
    links = set()
    seen = {entry}
    stack = [entry]
    while stack:
        for neighbor, link in dag.next_hops(stack.pop()):
            links.add(link.link_id)
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return frozenset(links)


class Internet:
    """The assembled universe: AS graph + per-AS networks + addressing."""

    def __init__(self, spec: UniverseSpec):
        spec.validate()
        self.spec = spec
        self.graph = AsGraph()
        self.networks: Dict[int, AsNetwork] = {}
        self.ip2as = Ip2AsMapper()
        self._index_of: Dict[int, int] = {}
        rng = random.Random(spec.seed)

        for index, as_spec in enumerate(spec.ases):
            self.graph.add_as(AsNode(as_spec.asn, as_spec.name,
                                     as_spec.tier))
            self._index_of[as_spec.asn] = index
            network = AsNetwork(
                as_spec, index,
                random.Random(flow_hash(spec.seed, as_spec.asn)),
            )
            self.networks[as_spec.asn] = network
            self._register_addresses(network)
        for customer, provider in spec.c2p_edges:
            self.graph.add_c2p(customer, provider)
            self._wire_interas(customer, provider)
        for left, right in spec.p2p_edges:
            self.graph.add_p2p(left, right)
            self._wire_interas(left, right)
        self.graph.validate()
        self.routing = BgpRouting(self.graph)
        self._apply_foreign_quirks()
        # Shared by every DataPlane over this universe (topology-only
        # state, so it stays valid across cycles and policy changes).
        self.segment_cache = SegmentCache()
        self.decision_cache = DecisionCache()

    def _register_addresses(self, network: AsNetwork) -> None:
        self.ip2as.add(infra_block(network.as_index), network.asn)
        for j in range(network.spec.prefix_count):
            self.ip2as.add(destination_prefix(network.as_index, j),
                           network.asn)

    def _next_border(self, network: AsNetwork, access: bool) -> int:
        """Round-robin border router for a new inter-AS link.

        Stub customers land on a small set of *access* borders (shared
        edge PoPs), so a stub-facing egress usually leads to several
        customer ASes; transit and peer links rotate over the remaining
        borders.  Separate counters keep both allocations even.
        """
        borders = sorted(
            r.router_id for r in network.topology.border_routers()
        )
        access_count = max(1, len(borders) // 3)
        if access and len(borders) > 1:
            pool = borders[:access_count]
            counter = network.border_rr["access"]
            network.border_rr["access"] += 1
        else:
            pool = borders[access_count:] or borders
            counter = network.border_rr["core"]
            network.border_rr["core"] += 1
        return pool[counter % len(pool)]

    def _wire_interas(self, left_asn: int, right_asn: int) -> None:
        """Connect one border of each AS with a /31 (owner: lower ASN)."""
        owner = min(left_asn, right_asn)
        owner_index = self._index_of[owner]
        base = _TEN + (owner_index << 16) + (240 << 8)
        used = sum(len(links) for links in
                   self.networks[owner].interas.values())
        addr_a, addr_b = base + 2 * used, base + 2 * used + 1
        left = self.networks[left_asn]
        right = self.networks[right_asn]
        # Listing the same AS pair several times in the universe spec
        # creates multi-point interconnection: each extra session lands
        # on different borders (distinct PoPs).  Round-robin allocation
        # spreads an AS's neighbor links evenly over its borders, so the
        # observable <Ingress, Egress> pair set stays rich.
        left_border = self._next_border(
            left, access=self.graph.nodes[right_asn].tier is Tier.STUB)
        right_border = self._next_border(
            right, access=self.graph.nodes[left_asn].tier is Tier.STUB)
        if owner == left_asn:
            left_addr, right_addr = addr_a, addr_b
        else:
            left_addr, right_addr = addr_b, addr_a
        left.interas.setdefault(right_asn, []).append(
            (left_border, left_addr, right_asn, right_border, right_addr)
        )
        right.interas.setdefault(left_asn, []).append(
            (right_border, right_addr, left_asn, left_border, left_addr)
        )

    def _apply_foreign_quirks(self) -> None:
        """Re-address some internal links from leased (foreign) space."""
        for network in self.networks.values():
            fraction = network.spec.foreign_address_fraction
            if fraction <= 0:
                continue
            foreign_asn = _FOREIGN_ASN_BASE + network.as_index
            block = _FOREIGN_BASE + (network.as_index << 8)
            self.ip2as.add(Prefix(block, 24), foreign_asn)
            rng = random.Random(
                flow_hash(self.spec.seed, 0xF0E1, network.asn)
            )
            offset = 0
            for link_id in sorted(network.topology.links):
                if offset + 2 > 256:
                    break
                if rng.random() >= fraction:
                    continue
                link = network.topology.links[link_id]
                object.__setattr__(link, "addr_a", block + offset)
                object.__setattr__(link, "addr_b", block + offset + 1)
                network.foreign_links.append(link_id)
                offset += 2

    # -- accessors -----------------------------------------------------------

    def network(self, asn: int) -> AsNetwork:
        """The AsNetwork of one ASN."""
        return self.networks[asn]

    def as_index(self, asn: int) -> int:
        """Position of an AS in the spec list (drives its addressing)."""
        return self._index_of[asn]

    def destination_addresses(self) -> List[Tuple[int, int]]:
        """Every probeable destination as (address, origin asn).

        One address per originated /24 (host .1), Archipelago-style.
        """
        result = []
        for network in self.networks.values():
            for j in range(network.spec.prefix_count):
                prefix = destination_prefix(network.as_index, j)
                result.append((prefix.network + 1, network.asn))
        return result

    def egress_towards(self, asn: int, next_asn: int, dst_prefix: Prefix
                       ) -> Tuple[int, int, int, int, int]:
        """Pick the inter-AS link used to leave ``asn`` for ``next_asn``.

        Returns (local border, local addr, remote asn, remote border,
        remote addr).  Deterministic per destination prefix, modelling
        hot-potato egress selection among multiple sessions.
        """
        links = self.networks[asn].interas.get(next_asn)
        if not links:
            raise KeyError(f"AS{asn} has no link to AS{next_asn}")
        return links[flow_hash(dst_prefix.network, asn, next_asn)
                     % len(links)]

    def apply_policies(self, policies: Dict[int, MplsPolicy]) -> None:
        """Apply per-AS MPLS policies (missing ASNs keep their current)."""
        for asn in sorted(policies):
            self.networks[asn].apply_policy(policies[asn])

    def tick(self) -> None:
        """Advance per-cycle timers in every AS."""
        for asn in sorted(self.networks):
            self.networks[asn].tick()

    STATE_VERSION = 1
    """Bumped when the snapshot payload shape changes, so stale
    snapshots are rejected instead of mis-read."""

    def capture_state(self) -> Dict[str, object]:
        """Full control-plane snapshot of the universe.

        Everything that evolves across cycles — per-AS policies, label
        allocators, LDP/RSVP-TE/SR engine state, TE-active maps — in
        one picklable structure (:meth:`AsNetwork.capture_state`).
        Restoring it onto a freshly built :class:`Internet` of the same
        spec reproduces the captured state exactly, which is what lets
        ``repro.par`` workers warm-start from a
        :class:`~repro.par.statestore.StateStore` snapshot instead of
        replaying the whole campaign prefix (DESIGN §10).
        """
        return {
            "version": self.STATE_VERSION,
            "networks": {asn: self.networks[asn].capture_state()
                         for asn in sorted(self.networks)},
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Install a :meth:`capture_state` snapshot.

        The snapshot's AS set and per-AS topology shapes must match
        this universe (same spec); anything else raises ValueError
        rather than silently mixing state across universes.  The
        rebuild runs with the collector paused, like
        :meth:`~repro.sim.ark.ArkSimulator.fast_forward`.
        """
        if state.get("version") != self.STATE_VERSION:
            raise ValueError(
                f"unsupported state snapshot version "
                f"{state.get('version')!r}")
        networks = state["networks"]
        if set(networks) != set(self.networks):
            raise ValueError("snapshot AS set does not match this "
                             "universe")
        with gc_paused():
            for asn in sorted(networks):
                self.networks[asn].restore_state(networks[asn])

    def __repr__(self) -> str:
        return f"Internet(ases={len(self.networks)})"
