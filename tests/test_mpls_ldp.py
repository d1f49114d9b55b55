"""Unit tests for the LDP engine.

The assertions here encode the invariants LPR later exploits:
router-scoped labels (one label per router per FEC), ECMP inheritance from
the IGP DAG, PHP at the penultimate hop.
"""

import pytest

from repro.igp.spf import SpfTable
from repro.mpls.fec import PrefixFec
from repro.mpls.ldp import LdpEngine
from repro.mpls.lfib import LfibAction
from repro.net.ip import Prefix

from helpers import (
    chain_topology,
    diamond_topology,
    label_manager_for,
    parallel_link_topology,
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
    def test_chain_pushes_next_hop_label(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        choices = engine.ingress_push_choices(0, fec)
        assert len(choices) == 1
        label, next_hop, _ = choices[0]
        assert next_hop == 1
        assert label == engine.labels.lfib(1).label_for(fec)

    def test_one_hop_php_pushes_nothing(self):
        topology = chain_topology(2)
        engine = engine_for(topology)
        fec = engine.establish_fec(1)
        choices = engine.ingress_push_choices(0, fec)
        assert choices == [(None, 1, topology.links[0])]

    def test_ecmp_push_choices(self):
        topology = diamond_topology()
        engine = engine_for(topology)
        fec = engine.establish_fec(3)
        choices = engine.ingress_push_choices(0, fec)
        assert len(choices) == 2
        labels = {label for label, _, _ in choices}
        assert len(labels) == 2  # different downstream routers, labels

    def test_parallel_links_same_label_different_links(self):
        topology = parallel_link_topology()
        engine = engine_for(topology)
        fec = engine.establish_fec(2)
        choices = engine.ingress_push_choices(0, fec)
        assert len(choices) == 2
        labels = {label for label, _, _ in choices}
        links = {link.link_id for _, _, link in choices}
        assert len(labels) == 1   # same downstream router => same label
        assert len(links) == 2    # but two distinct links

    def test_ingress_equals_egress_empty(self):
        topology = chain_topology(3)
        engine = engine_for(topology)
        fec = engine.establish_fec(2)
        assert engine.ingress_push_choices(2, fec) == []

    def test_unestablished_fec_raises(self):
        topology = chain_topology(3)
        engine = engine_for(topology)
        fec = PrefixFec(Prefix.parse("10.9.9.9/32"))
        with pytest.raises(KeyError):
            engine.ingress_push_choices(0, fec)


class TestPolicies:
    def test_establish_transit_fecs_covers_borders(self):
        topology = diamond_topology()
        engine = engine_for(topology)
        fecs = engine.establish_transit_fecs()
        egresses = {engine.egress_of(fec) for fec in fecs}
        assert egresses == {0, 3}
