"""Unit tests for the RSVP-TE engine.

These encode the Multi-FEC signature: per-session labels at every hop, and
label churn under head-end re-optimization (the Fig 17 mechanism).
"""

import pytest

from repro.igp.spf import SpfTable
from repro.mpls.rsvpte import RsvpError, RsvpTeEngine

from helpers import chain_topology, diamond_topology, label_manager_for


def engine_for(topology, php=True):
    return RsvpTeEngine(topology, SpfTable(topology),
                        label_manager_for(topology), php=php)


class TestSignalling:
    def test_signal_allocates_per_hop_labels(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        session = engine.signal(0, 3, tunnel_id=0)
        # PHP: routers 1 and 2 hold labels; egress 3 does not.
        assert set(session.labels) == {1, 2}

    def test_no_php_egress_holds_label(self):
        topology = chain_topology(4)
        engine = engine_for(topology, php=False)
        session = engine.signal(0, 3, tunnel_id=0)
        assert set(session.labels) == {1, 2, 3}

    def test_two_tunnels_same_path_distinct_labels(self):
        """The Multi-FEC signature: same IP path, different labels."""
        topology = chain_topology(4)
        engine = engine_for(topology)
        first = engine.signal(0, 3, tunnel_id=0)
        second = engine.signal(0, 3, tunnel_id=1)
        assert first.routers == second.routers  # one IP path
        for router in (1, 2):
            assert first.labels[router] != second.labels[router]

    def test_tunnels_round_robin_over_ecmp_paths(self):
        topology = diamond_topology()
        engine = engine_for(topology)
        first = engine.signal(0, 3, tunnel_id=0)
        second = engine.signal(0, 3, tunnel_id=1)
        assert first.routers != second.routers

    def test_unreachable_egress_raises(self):
        from repro.igp.topology import Router

        topology = chain_topology(2)
        topology.add_router(Router(9, loopback=99))
        engine = engine_for(topology)
        with pytest.raises(RsvpError):
            engine.signal(0, 9, tunnel_id=0)

    def test_session_lookup(self):
        topology = chain_topology(3)
        engine = engine_for(topology)
        session = engine.signal(0, 2, tunnel_id=5)
        assert engine.session(0, 2, 5) is session
        assert engine.session(0, 2, 6) is None

    def test_ingress_push(self):
        # The head-end pushes its first hop's session label: the label
        # the forwarding walk reads from ``session.labels`` there.
        topology = chain_topology(4)
        engine = engine_for(topology)
        session = engine.signal(0, 3, tunnel_id=0)
        next_hop, _ = session.route[0]
        assert next_hop == 1
        assert session.labels.get(next_hop) is not None

    def test_ingress_push_one_hop_php(self):
        # A one-hop tunnel to a PHP egress pushes no label at all.
        topology = chain_topology(2)
        engine = engine_for(topology)
        session = engine.signal(0, 1, tunnel_id=0)
        assert [router for router, _ in session.route] == [1]
        assert session.labels == {}


class TestReoptimization:
    def test_reoptimize_changes_labels(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        before = dict(engine.signal(0, 3, tunnel_id=0).labels)
        after = dict(engine.reoptimize_all()[0].labels)
        assert before != after
        for router in before:
            assert after[router] > before[router]  # sequential allocator

    def test_reoptimize_bumps_instance(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        engine.signal(0, 3, tunnel_id=0)
        session, = engine.reoptimize_all()
        assert session.fec.instance == 1
        assert engine.session(0, 3, 0) is session

    def test_reoptimize_releases_old_labels(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        engine.signal(0, 3, tunnel_id=0)
        engine.reoptimize_all()
        # One session through router 1 => exactly one label in use there.
        assert engine.labels.allocator(1).in_use == 1

    def test_reoptimize_all(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        engine.signal(0, 3, tunnel_id=0)
        engine.signal(0, 3, tunnel_id=1)
        sessions = engine.reoptimize_all()
        assert len(sessions) == 2
        assert all(s.fec.instance == 1 for s in sessions)

    def test_busier_lsr_counter_advances_faster(self):
        """Fig 17: an LSR carrying more sessions churns labels faster."""
        topology = chain_topology(4)
        engine = engine_for(topology)
        engine.signal(0, 3, tunnel_id=0)   # through routers 1, 2
        engine.signal(1, 3, tunnel_id=0)   # through router 2 only
        for _ in range(3):
            engine.reoptimize_all()
        busy = engine.labels.allocator(2).allocated_total
        quiet = engine.labels.allocator(1).allocated_total
        assert busy > quiet


class TestTeardown:
    def test_teardown_releases_labels(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        engine.signal(0, 3, tunnel_id=0)
        engine.teardown(0, 3, 0)
        assert engine.labels.allocator(1).in_use == 0
        assert engine.session(0, 3, 0) is None

    def test_teardown_unknown_raises(self):
        topology = chain_topology(3)
        engine = engine_for(topology)
        with pytest.raises(RsvpError):
            engine.teardown(0, 2, 0)
