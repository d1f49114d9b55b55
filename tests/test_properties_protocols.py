"""Property-based tests over the protocol engines (BGP, LDP, RSVP-TE)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.asgraph import AsGraph, AsNode, Relationship, Tier
from repro.bgp.routing import BgpRouting
from repro.igp.spf import SpfTable, spf_to
from repro.igp.topology import Router, Topology
from repro.mpls.ldp import LdpEngine
from repro.mpls.lfib import LabelManager
from repro.mpls.rsvpte import RsvpTeEngine

from helpers import TRANSIT_AS, ldp_transit, transit_walks


# -- random AS graph strategy --------------------------------------------------

@st.composite
def as_graphs(draw):
    """Random valid hierarchies: a tier-1 clique, transits, stubs."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    tier1_count = draw(st.integers(min_value=1, max_value=3))
    transit_count = draw(st.integers(min_value=0, max_value=4))
    stub_count = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(seed)

    graph = AsGraph()
    tier1s = [100 + i for i in range(tier1_count)]
    transits = [200 + i for i in range(transit_count)]
    stubs = [300 + i for i in range(stub_count)]
    for asn in tier1s:
        graph.add_as(AsNode(asn, tier=Tier.TIER1))
    for asn in transits:
        graph.add_as(AsNode(asn, tier=Tier.TRANSIT))
    for asn in stubs:
        graph.add_as(AsNode(asn, tier=Tier.STUB))
    for i, left in enumerate(tier1s):
        for right in tier1s[i + 1:]:
            graph.add_p2p(left, right)
    for asn in transits:
        graph.add_c2p(asn, rng.choice(tier1s))
        if rng.random() < 0.5 and tier1_count > 1:
            graph.add_c2p(asn, rng.choice(tier1s))
    for asn in stubs:
        providers = transits + tier1s
        graph.add_c2p(asn, rng.choice(providers))
        if rng.random() < 0.3:
            backup = rng.choice(providers)
            if graph.relationship(asn, backup) is None:
                graph.add_c2p(asn, backup)
    # Occasional transit-transit peering.
    if len(transits) >= 2 and rng.random() < 0.5:
        left, right = rng.sample(transits, 2)
        if graph.relationship(left, right) is None:
            graph.add_p2p(left, right)
    graph.validate()
    return graph


class TestBgpProperties:
    @settings(max_examples=50, deadline=None)
    @given(as_graphs())
    def test_all_paths_valley_free(self, graph):
        routing = BgpRouting(graph)
        for src in graph.nodes:
            for dst in graph.nodes:
                if src == dst:
                    continue
                path = routing.as_path(src, dst)
                if path is None:
                    continue
                descended = False
                peer_steps = 0
                for left, right in zip(path, path[1:]):
                    rel = graph.relationship(left, right)
                    if rel is Relationship.PROVIDER:
                        assert not descended, path
                    elif rel is Relationship.PEER:
                        peer_steps += 1
                        descended = True
                    else:
                        descended = True
                assert peer_steps <= 1, path

    @settings(max_examples=50, deadline=None)
    @given(as_graphs())
    def test_everything_reachable_in_valid_hierarchy(self, graph):
        """With a full tier-1 clique at the top, any two ASes have a
        valley-free path."""
        routing = BgpRouting(graph)
        for src in graph.nodes:
            for dst in graph.nodes:
                assert routing.reachable(src, dst), (src, dst)

    @settings(max_examples=50, deadline=None)
    @given(as_graphs())
    def test_next_hop_consistency(self, graph):
        """Following next_as step by step yields as_path."""
        routing = BgpRouting(graph)
        nodes = sorted(graph.nodes)
        for src in nodes[:4]:
            for dst in nodes[-4:]:
                path = routing.as_path(src, dst)
                if path is None or len(path) < 2:
                    continue
                walked = [src]
                current = src
                while current != dst:
                    current = routing.next_as(current, dst)
                    walked.append(current)
                assert walked == path


# -- random topologies for label engines ----------------------------------------

def random_topology(seed, count=8, borders=3, extra=6):
    rng = random.Random(seed)
    topology = Topology(asn=65000)
    for router_id in range(count):
        topology.add_router(Router(
            router_id, loopback=50_000 + router_id,
            vendor=rng.choice(["cisco", "juniper"]),
            is_border=router_id < borders,
        ))
    addr = [100]

    def pair():
        addr[0] += 2
        return addr[0] - 2, addr[0] - 1

    for router_id in range(1, count):
        a, b = pair()
        topology.add_link(rng.randrange(router_id), router_id, a, b,
                          cost=rng.randint(1, 3))
    for _ in range(extra):
        left, right = rng.randrange(count), rng.randrange(count)
        if left != right:
            a, b = pair()
            topology.add_link(left, right, a, b, cost=rng.randint(1, 3))
    return topology


def manager_for(topology):
    return LabelManager({
        router_id: router.vendor
        for router_id, router in topology.routers.items()
    })


class TestLdpProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_router_scope_invariant(self, seed):
        """One label per (router, FEC), and swap entries always point
        at the downstream router's own binding."""
        topology = random_topology(seed)
        labels = manager_for(topology)
        engine = LdpEngine(topology, SpfTable(topology), labels)
        fecs = engine.establish_transit_fecs()
        for fec in fecs:
            egress = engine.egress_of(fec)
            for router_id in topology.routers:
                lfib = labels.lfib(router_id)
                label = lfib.label_for(fec)
                if label is None:
                    continue
                for entry in lfib.choices(label):
                    if entry.out_label is not None:
                        downstream = labels.lfib(entry.next_hop)
                        assert entry.out_label \
                            == downstream.label_for(fec)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=3),
           st.sampled_from(["cisco", "juniper", "legacy"]))
    def test_lsp_walk_terminates_at_egress(self, seed, routers, ecmp,
                                           vendor):
        """Every forwarding walk over LDP follows LFIB entries from the
        ingress to the egress border: each hop is the next hop of the
        previous router's entry, carrying its out-label (none after a
        PHP pop), with no loop and no dead end."""
        internet = ldp_transit(seed=seed, router_count=routers,
                               border_count=min(3, routers),
                               ecmp_breadth=ecmp, vendor=vendor)
        network = internet.network(TRANSIT_AS)
        labels = network.labels
        for hops in transit_walks(internet, flows=2):
            egress = hops[-1].router_id
            assert network.topology.routers[egress].is_border
            assert len({hop.router_id for hop in hops}) == len(hops)
            fec = network.loopback_fec(egress)
            for here, there in zip(hops, hops[1:]):
                lfib = labels.lfib(here.router_id)
                entries = lfib.choices(lfib.label_for(fec))
                assert entries, (here.router_id, fec)
                assert (there.router_id,
                        there.labels[0] if there.labels else None) in {
                    (entry.next_hop, entry.out_label)
                    for entry in entries}


class TestRsvpProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=1, max_value=4))
    def test_session_labels_unique_per_router(self, seed, tunnels):
        """No two sessions share a label at any router."""
        topology = random_topology(seed)
        labels = manager_for(topology)
        engine = RsvpTeEngine(topology, SpfTable(topology), labels)
        borders = sorted(r.router_id for r in topology.border_routers())
        for tunnel_id in range(tunnels):
            engine.signal(borders[0], borders[-1], tunnel_id)
        per_router = {}
        for session in engine.sessions:
            for router, label in session.labels.items():
                key = (router, label)
                assert key not in per_router, key
                per_router[key] = session.fec
