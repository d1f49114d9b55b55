"""Unit and integration tests for SR-MPLS segment routing."""

import pytest

from repro.igp.spf import SpfTable
from repro.mpls.srte import (
    DEFAULT_SRGB_BASE,
    SegmentRoutingEngine,
    SrError,
)

from helpers import chain_topology, diamond_topology


def engine_for(topology):
    return SegmentRoutingEngine(topology, SpfTable(topology))


class TestSids:
    def test_node_sid_is_global(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        assert engine.node_sid(0) == DEFAULT_SRGB_BASE
        assert engine.node_sid(3) == DEFAULT_SRGB_BASE + 3

    def test_unknown_router_rejected(self):
        engine = engine_for(chain_topology(2))
        with pytest.raises(SrError):
            engine.node_sid(42)


class TestPolicies:
    def test_install_and_lookup(self):
        engine = engine_for(chain_topology(4))
        policy = engine.install_policy(0, 3, waypoints=[2])
        assert policy.segment_targets == (2, 3)
        assert engine.policies_between(0, 3) == [policy]
        assert engine.policies_between(3, 0) == []

    def test_policy_for_is_deterministic(self):
        # SR policy steering, as the walk picks it (DataPlane._option).
        from repro.sim import MplsPolicy
        from repro.sim.dataplane import DataPlane
        from test_sim_dataplane import DST_AS, build as build_internet

        internet = build_internet(
            MplsPolicy(enabled=True, ldp=True, sr_pair_fraction=1.0,
                       sr_policies_per_pair=2, sr_waypoints=1),
            transit_routers=12, prefix_count=8)
        dataplane = DataPlane(internet)
        stacks = set()
        for dst, owner in internet.destination_addresses():
            if owner != DST_AS:
                continue
            # Steering is by destination /24: every flow to one
            # destination rides the same policy (one segment per
            # policy, so the same stacks).
            per_flow = {
                tuple(hop.labels for hop in
                      dataplane.forward_path(65301, 1, 99, dst, flow_id))
                for flow_id in range(4)}
            assert len(per_flow) == 1
            stacks |= per_flow
        # Two policies for the pair, and its /24s use both.
        assert len(stacks) == 2

    def test_validation(self):
        engine = engine_for(chain_topology(4))
        with pytest.raises(SrError):
            engine.install_policy(0, 0, waypoints=[])
        with pytest.raises(SrError):
            engine.install_policy(0, 3, waypoints=[99])

    def test_clear(self):
        engine = engine_for(chain_topology(4))
        engine.install_policy(0, 3, waypoints=[])
        engine.install_policy(3, 0, waypoints=[])
        engine.clear()
        assert engine.policies_between(0, 3) == []
        assert engine.policies_between(3, 0) == []


class TestWalk:
    def test_stack_shrinks_along_path(self):
        topology = chain_topology(5)  # 0-1-2-3-4
        engine = engine_for(topology)
        policy = engine.install_policy(0, 4, waypoints=[2])
        steps = engine.walk(policy, flow_digest=1)
        routers = [router for router, _, _ in steps]
        assert routers == [1, 2, 3, 4]
        stacks = {router: stack for router, _, stack in steps}
        sid2, sid4 = engine.node_sid(2), engine.node_sid(4)
        # Hop 1 carries both segments; waypoint 2 has its own SID
        # popped (PHP) and shows the next segment.
        assert stacks[1] == (sid2, sid4)
        assert stacks[2] == (sid4,)
        assert stacks[3] == (sid4,)
        assert stacks[4] == ()  # egress receives plain IP

    def test_no_waypoints_behaves_like_one_segment(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        policy = engine.install_policy(0, 3, waypoints=[])
        steps = engine.walk(policy, flow_digest=1)
        sid3 = engine.node_sid(3)
        assert [stack for _, _, stack in steps] == [(sid3,), (sid3,), ()]

    def test_sid_is_identical_on_every_lsr_of_segment(self):
        """Unlike LDP's router-scoped labels, a node SID is one global
        value along the whole segment."""
        topology = chain_topology(6)
        engine = engine_for(topology)
        policy = engine.install_policy(0, 5, waypoints=[])
        steps = engine.walk(policy, flow_digest=1)
        tops = {stack[0] for _, _, stack in steps if stack}
        assert tops == {engine.node_sid(5)}

    def test_ecmp_within_segment(self):
        topology = diamond_topology()
        engine = engine_for(topology)
        policy = engine.install_policy(0, 3, waypoints=[])
        paths = {
            tuple(router for router, _, _ in
                  engine.walk(policy, flow_digest=digest))
            for digest in range(32)
        }
        assert paths == {(1, 3), (2, 3)}

    def test_waypoint_equal_to_current_is_skipped(self):
        topology = chain_topology(4)
        engine = engine_for(topology)
        policy = engine.install_policy(0, 3, waypoints=[0])
        steps = engine.walk(policy, flow_digest=1)
        assert [router for router, _, _ in steps] == [1, 2, 3]

    def test_unreachable_segment_raises(self):
        from repro.igp.topology import Router

        topology = chain_topology(3)
        topology.add_router(Router(9, loopback=999))
        engine = SegmentRoutingEngine(topology, SpfTable(topology))
        policy = engine.install_policy(0, 9, waypoints=[])
        with pytest.raises(SrError):
            engine.walk(policy, flow_digest=1)


class TestSrThroughTraceroute:
    """SR policies observed end to end through the measurement stack."""

    def build(self):
        from repro.sim import MplsPolicy
        from test_sim_dataplane import build as build_internet, \
            a_destination, TRANSIT

        internet = build_internet(
            MplsPolicy(enabled=True, ldp=True, sr_pair_fraction=1.0,
                       sr_policies_per_pair=2, sr_waypoints=1),
            transit_routers=12,
        )
        return internet, a_destination(internet), TRANSIT

    def test_traces_show_multi_entry_stacks(self):
        from repro.sim.dataplane import DataPlane

        internet, dst, transit = self.build()
        hops = DataPlane(internet).forward_path(65301, 1, 99, dst)
        stacks = [hop.labels for hop in hops if hop.labels]
        assert stacks
        assert any(len(stack) >= 2 for stack in stacks)
        # Stack depth never grows along the path.
        depths = [len(stack) for stack in stacks]
        assert all(a >= b for a, b in zip(depths, depths[1:]))

    def test_sr_labels_live_in_srgb(self):
        from repro.sim.dataplane import DataPlane
        from repro.mpls.srte import DEFAULT_SRGB_BASE

        internet, dst, transit = self.build()
        hops = DataPlane(internet).forward_path(65301, 1, 99, dst)
        for hop in hops:
            for label in hop.labels:
                assert label >= DEFAULT_SRGB_BASE

    def test_full_trace_quotes_sr_stacks(self):
        from repro.sim.dataplane import DataPlane
        from repro.sim.monitors import build_monitors
        from repro.sim.traceroute import TracerouteEngine

        internet, dst, _ = self.build()
        monitor = build_monitors(internet, per_as=1)[0]
        engine = TracerouteEngine(DataPlane(internet), loss_rate=0.0)
        trace = engine.trace(monitor, dst)
        deep = [hop for hop in trace.hops if len(hop.quoted_stack) >= 2]
        assert deep
        # Bottom-of-stack bit set exactly on the last entry.
        for hop in deep:
            assert not hop.quoted_stack[0].bottom
            assert hop.quoted_stack[-1].bottom
