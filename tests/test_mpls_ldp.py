"""Unit tests for the LDP engine.

The assertions here encode the invariants LPR later exploits:
router-scoped labels (one label per router per FEC), ECMP inheritance from
the IGP DAG, PHP at the penultimate hop.  What an ingress pushes is read
off the forwarding walk (``DataPlane.forward_path``), the one place that
decides it.
"""

from repro.igp.spf import SpfTable
from repro.mpls.ldp import LdpEngine
from repro.mpls.lfib import LfibAction
from repro.net.ip import Prefix

from helpers import (
    TRANSIT_AS,
    chain_topology,
    diamond_topology,
    label_manager_for,
    ldp_transit,
    transit_walks,
)


def engine_for(topology):
    return LdpEngine(topology, SpfTable(topology),
                     label_manager_for(topology))


class TestEstablishFec:
    def test_fec_targets_egress_loopback(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        assert fec.prefix == Prefix(topology.routers[3].loopback, 32)

    def test_idempotent(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        assert engine.establish_fec(3) == fec
        assert engine.labels.allocator(1).in_use == 1

    def test_every_transit_router_has_label(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        for router_id in (0, 1, 2):
            assert engine.labels.lfib(router_id).label_for(fec) is not None

    def test_php_egress_has_no_label(self):
        topology = chain_topology(4)  # cisco: PHP on
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        assert engine.labels.lfib(3).label_for(fec) is None

    def test_penultimate_pops(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        in_label = engine.labels.lfib(2).label_for(fec)
        choices = engine.labels.lfib(2).choices(in_label)
        assert len(choices) == 1
        assert choices[0].action is LfibAction.POP
        assert choices[0].next_hop == 3

    def test_transit_swaps_to_downstream_label(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        label_r1 = engine.labels.lfib(1).label_for(fec)
        label_r2 = engine.labels.lfib(2).label_for(fec)
        choices = engine.labels.lfib(1).choices(label_r1)
        assert choices[0].action is LfibAction.SWAP
        assert choices[0].out_label == label_r2

    def test_no_php_egress_delivers(self):
        topology = chain_topology(4, vendor="legacy")  # legacy: PHP off
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        in_label = engine.labels.lfib(3).label_for(fec)
        assert in_label is not None
        choices = engine.labels.lfib(3).choices(in_label)
        assert choices[0].action is LfibAction.DELIVER

    def test_ecmp_installs_both_branches(self):
        topology = diamond_topology()
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        in_label = engine.labels.lfib(0).label_for(fec)
        next_hops = {c.next_hop for c in engine.labels.lfib(0)
                     .choices(in_label)}
        assert next_hops == {1, 2}

    def test_router_scope_one_label_per_fec(self):
        """An LSR proposes the same label to all upstreams (LDP default)."""
        topology = diamond_topology()
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        # Whatever branch the packet took, at router 1 the label is the
        # label router 1 allocated — there is exactly one.
        assert engine.labels.allocator(1).in_use == 1


class TestIngressPush:
    """The label an ingress LER pushes, as the forwarding walk shows it
    (``DataPlane.forward_path``): the hop after the ingress carries the
    label its router bound to the egress FEC."""

    def test_chain_pushes_next_hop_label(self):
        internet = ldp_transit()
        network = internet.network(TRANSIT_AS)
        walks = list(transit_walks(internet))
        assert walks
        for hops in walks:
            ingress, first, egress = hops[0], hops[1], hops[-1]
            fec = network.loopback_fec(egress.router_id)
            label = network.labels.lfib(first.router_id).label_for(fec)
            assert first.labels == (label,)
            # The ingress LFIB swaps onto that label towards that hop.
            lfib = network.labels.lfib(ingress.router_id)
            assert (first.router_id, label) in {
                (entry.next_hop, entry.out_label)
                for entry in lfib.choices(lfib.label_for(fec))}

    def test_one_hop_php_pushes_nothing(self):
        internet = ldp_transit(router_count=2, border_count=2)
        network = internet.network(TRANSIT_AS)
        walks = list(transit_walks(internet))
        assert walks
        for _ingress, egress in walks:
            assert network.ldp.uses_php(egress.router_id)
            assert not egress.labels

    def test_ecmp_push_choices(self):
        internet = ldp_transit(seed=25, router_count=12, ecmp_breadth=2)
        pushed = {(hops[1].router_id, hops[1].labels)
                  for hops in transit_walks(internet, flows=4)}
        # Flows split over downstream routers, each with its own label.
        assert len(pushed) >= 2
        assert len({labels for _, labels in pushed}) == len(pushed)

    def test_parallel_links_same_label_different_links(self):
        internet = ldp_transit(router_count=16, border_count=4,
                               ecmp_breadth=3, parallel_link_fraction=0.5)
        addresses, labels = {}, {}
        for hops in transit_walks(internet, flows=8):
            first = hops[1]
            addresses.setdefault(first.router_id, set()).add(first.address)
            labels.setdefault(first.router_id, set()).add(first.labels)
        # Same downstream router => same label, over distinct links.
        assert any(len(seen) == 2 for seen in addresses.values())
        assert all(len(seen) == 1 for seen in labels.values())

    def test_ingress_equals_egress_empty(self):
        internet = ldp_transit(router_count=3, border_count=1)
        walks = list(transit_walks(internet))
        assert walks
        for hops in walks:
            assert len(hops) == 1 and not hops[0].labels


class TestPolicies:
    def test_establish_transit_fecs_covers_borders(self):
        topology = diamond_topology()
        engine = engine_for(topology)
        fecs = engine.establish_transit_fecs()
        egresses = {engine.egress_of(fec) for fec in fecs}
        assert egresses == {0, 3}
