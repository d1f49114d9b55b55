"""Unit tests for the IGP substrate: topology, SPF/ECMP, flow hashing."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.igp.ecmp import _splitmix64, flow_hash, fold, fold_ramp
from repro.igp.spf import SpfTable, spf_to
from repro.igp.topology import Router, Topology, TopologyError
from repro.sim.dataplane import DataPlane

from helpers import (
    chain_topology,
    diamond_topology,
    parallel_link_topology,
)
from test_sim_dataplane import SRC_AS, TRANSIT, a_destination, build


class TestTopology:
    def test_duplicate_router_rejected(self):
        topology = Topology(asn=1)
        topology.add_router(Router(0, loopback=1))
        with pytest.raises(TopologyError):
            topology.add_router(Router(0, loopback=2))

    def test_link_requires_registered_routers(self):
        topology = Topology(asn=1)
        topology.add_router(Router(0, loopback=1))
        with pytest.raises(TopologyError):
            topology.add_link(0, 99, 10, 11)

    def test_self_loop_rejected(self):
        topology = Topology(asn=1)
        topology.add_router(Router(0, loopback=1))
        with pytest.raises(TopologyError):
            topology.add_link(0, 0, 10, 11)

    def test_nonpositive_cost_rejected(self):
        topology = chain_topology(2)
        with pytest.raises(TopologyError):
            topology.add_link(0, 1, 500, 501, cost=0)

    def test_neighbors_and_parallel_links(self):
        topology = parallel_link_topology()
        neighbors = list(topology.neighbors(0))
        assert [n for n, _ in neighbors] == [1, 1]
        assert len(topology.links_between(0, 1)) == 2
        assert len(topology.links_between(1, 2)) == 1

    def test_border_routers(self):
        topology = diamond_topology()
        assert {r.router_id for r in topology.border_routers()} == {0, 3}

    def test_link_other_and_address_of(self):
        topology = chain_topology(2)
        link = topology.links[0]
        assert link.other(0) == 1
        assert link.other(1) == 0
        assert link.address_of(0) == link.addr_a
        assert link.address_of(1) == link.addr_b
        with pytest.raises(TopologyError):
            link.other(9)

    def test_interface_addresses_ownership(self):
        topology = diamond_topology()
        owners = topology.interface_addresses()
        for router in topology.routers.values():
            assert owners[router.loopback] == router.router_id
        for link in topology.links.values():
            assert owners[link.addr_a] == link.router_a
            assert owners[link.addr_b] == link.router_b

    def test_validate_detects_duplicate_address(self):
        topology = Topology(asn=1)
        topology.add_router(Router(0, loopback=1))
        topology.add_router(Router(1, loopback=1))  # same loopback
        with pytest.raises(TopologyError):
            topology.validate()

    def test_validate_passes_on_clean_topology(self):
        diamond_topology().validate()


class TestSpf:
    def test_chain_distances(self):
        topology = chain_topology(4)
        result = spf_to(topology, 3)
        assert result.distance[0] == 3
        assert result.distance[3] == 0

    def test_chain_single_successor(self):
        topology = chain_topology(4)
        result = spf_to(topology, 3)
        assert [nh for nh, _ in result.next_hops(0)] == [1]

    def test_diamond_ecmp(self):
        topology = diamond_topology()
        result = spf_to(topology, 3)
        next_hops = {nh for nh, _ in result.next_hops(0)}
        assert next_hops == {1, 2}
        assert result.path_count(0) == 2

    def test_parallel_links_both_in_dag(self):
        topology = parallel_link_topology()
        result = spf_to(topology, 2)
        choices = result.next_hops(0)
        assert len(choices) == 2
        assert {nh for nh, _ in choices} == {1}
        assert len({link.link_id for _, link in choices}) == 2

    def test_unequal_cost_excluded(self):
        topology = diamond_topology()
        # Penalize the upper path.
        for link in topology.links.values():
            if {link.router_a, link.router_b} == {0, 1}:
                object.__setattr__(link, "cost", 10)
        result = spf_to(topology, 3)
        assert [nh for nh, _ in result.next_hops(0)] == [2]

    def test_unreachable_router(self):
        topology = chain_topology(2)
        topology.add_router(Router(99, loopback=999))
        result = spf_to(topology, 1)
        assert not result.reachable(99)
        assert result.path_count(99) == 0

    def test_unknown_destination_raises(self):
        with pytest.raises(KeyError):
            spf_to(chain_topology(2), 42)

    def test_all_paths_diamond(self):
        topology = diamond_topology()
        result = spf_to(topology, 3)
        paths = result.all_paths(0)
        assert len(paths) == 2
        as_routers = sorted(tuple(r for r, _ in path) for path in paths)
        assert as_routers == [(1, 3), (2, 3)]

    def test_all_paths_respects_limit(self):
        topology = diamond_topology()
        result = spf_to(topology, 3)
        assert len(result.all_paths(0, limit=1)) == 1

    def test_path_count_survives_long_chains(self):
        # Deeper than Python's default recursion limit: a recursive
        # path_count would raise RecursionError here.
        depth = 2000
        topology = chain_topology(depth)
        result = spf_to(topology, depth - 1)
        assert result.path_count(0) == 1

    def test_path_count_multiplies_across_stacked_diamonds(self):
        # 40 diamonds in series: the DAG has 2**40 equal-cost paths,
        # far beyond anything all_paths() could enumerate.
        diamonds = 40
        topology = Topology(asn=65000)
        # Routers: joint j sits at id 3*j; each diamond adds an upper
        # (3*j+1) and lower (3*j+2) branch router.
        for j in range(diamonds + 1):
            topology.add_router(Router(3 * j, loopback=10_000 + 3 * j))
        address = 0

        def pair():
            nonlocal address
            address += 2
            return 20_000 + address - 2, 20_000 + address - 1

        for j in range(diamonds):
            upper, lower = 3 * j + 1, 3 * j + 2
            topology.add_router(Router(upper, loopback=10_000 + upper))
            topology.add_router(Router(lower, loopback=10_000 + lower))
            for left, right in [(3 * j, upper), (3 * j, lower),
                                (upper, 3 * j + 3), (lower, 3 * j + 3)]:
                a, b = pair()
                topology.add_link(left, right, a, b)

        result = spf_to(topology, 3 * diamonds)
        assert result.path_count(0) == 2 ** diamonds

    def test_spf_table_caches(self):
        topology = diamond_topology()
        table = SpfTable(topology)
        first = table.to_destination(3)
        assert table.to_destination(3) is first
        table.invalidate()
        assert table.to_destination(3) is not first


class TestEcmpHashing:
    def test_flow_hash_deterministic(self):
        assert flow_hash(1, 2, 3) == flow_hash(1, 2, 3)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=1, max_size=6))
    def test_flow_hash_sensitive_to_any_field(self, fields):
        tweaked = list(fields)
        tweaked[-1] ^= 1
        assert flow_hash(*fields) != flow_hash(*tweaked)

    @given(st.lists(st.integers(min_value=-2**70, max_value=2**70),
                    max_size=5),
           st.lists(st.integers(min_value=-2**70, max_value=2**70),
                    max_size=5))
    def test_flow_hash_is_a_left_fold(self, prefix, suffix):
        # What lets a per-trace prefix state stand in for re-hashing
        # the whole field list per probe.
        assert flow_hash(*prefix, *suffix) \
            == fold(flow_hash(*prefix), *suffix)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @example(0)
    @example(2**64 - 1)
    def test_fold_ramp_equals_one_splitmix_per_ttl(self, state):
        # The packed lanes must not carry into each other for any lane
        # count a TTL sweep can ask for.
        scalar = tuple(_splitmix64(state ^ ttl) for ttl in range(1, 256))
        for n in range(1, 256):
            assert fold_ramp(state, n) == scalar[:n], n

    # The walk hashes each flow once and draws a whole equal-cost
    # segment per AS crossing (DataPlane._walk_as, decisions.picks).

    def test_same_flow_same_branch(self):
        internet, dst = _ecmp_internet()
        paths = {_transit_routers(DataPlane(internet), dst, flow_id=5)
                 for _ in range(3)}
        assert len(paths) == 1

    def test_different_flows_spread(self):
        internet, dst = _ecmp_internet()
        dataplane = DataPlane(internet)
        paths = {_transit_routers(dataplane, dst, flow_id)
                 for flow_id in range(64)}
        assert len(paths) >= 2
        # One draw per flow, all for the transit AS's one crossing.
        assert len(dataplane.decisions.picks) == 64
        assert {key[1] for key in dataplane.decisions.picks} == {TRANSIT}

    def test_single_choice_shortcut(self):
        internet = build(ecmp=1)
        dst = a_destination(internet)
        dataplane = DataPlane(internet)
        paths = {_transit_routers(dataplane, dst, flow_id)
                 for flow_id in range(8)}
        assert len(paths) == 1
        assert len(dataplane.decisions.picks) == 0


def _ecmp_internet():
    """A transit pair with several equal-cost segments, and a
    destination behind it."""
    internet = build(ecmp=3, transit_routers=14)
    return internet, a_destination(internet)


def _transit_routers(dataplane, dst, flow_id):
    return tuple(hop.router_id for hop in
                 dataplane.forward_path(SRC_AS, 1, 99, dst, flow_id)
                 if hop.asn == TRANSIT)
