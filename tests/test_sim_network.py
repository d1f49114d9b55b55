"""Unit tests for universe construction (config, topology, addressing)."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.asgraph import Tier
from repro.igp.spf import spf_to
from repro.net.ip import int_to_ip, ip_to_int
from repro.sim.ark import ArkSimulator
from repro.sim.config import AsSpec, MplsPolicy, UniverseSpec
from repro.sim.dataplane import DataPlane
from repro.sim.network import (
    Internet,
    SpfSegments,
    destination_prefix,
    infra_block,
    loopback_address,
)
from repro.sim.scenarios import build_universe, paper_scenario


def tiny_universe():
    ases = [
        AsSpec(100, "T1", Tier.TIER1, router_count=8, border_count=3,
               ecmp_breadth=2),
        AsSpec(200, "T2", Tier.TIER1, router_count=8, border_count=3),
        AsSpec(300, "TR", Tier.TRANSIT, router_count=6, border_count=2),
        AsSpec(501, "S1", Tier.STUB, router_count=3, border_count=1,
               prefix_count=2),
        AsSpec(502, "S2", Tier.STUB, router_count=3, border_count=1,
               prefix_count=2),
    ]
    return UniverseSpec(
        ases=ases,
        c2p_edges=[(300, 100), (300, 200), (501, 300), (502, 200)],
        p2p_edges=[(100, 200)],
        monitor_ases=[501],
        seed=7,
    )


class TestConfigValidation:
    def test_policy_fraction_bounds(self):
        with pytest.raises(ValueError):
            MplsPolicy(te_pair_fraction=1.5)
        with pytest.raises(ValueError):
            MplsPolicy(mpls_pair_fraction=-0.1)

    def test_policy_negative_tunnels(self):
        with pytest.raises(ValueError):
            MplsPolicy(te_tunnels_per_pair=-1)

    def test_uses_te(self):
        assert MplsPolicy(enabled=True, te_pair_fraction=0.5,
                          te_tunnels_per_pair=2).uses_te
        assert not MplsPolicy(enabled=True).uses_te
        assert not MplsPolicy(enabled=False, te_pair_fraction=0.5,
                              te_tunnels_per_pair=2).uses_te

    def test_as_spec_bounds(self):
        with pytest.raises(ValueError):
            AsSpec(1, router_count=0)
        with pytest.raises(ValueError):
            AsSpec(1, router_count=4, border_count=5)
        with pytest.raises(ValueError):
            AsSpec(1, ecmp_breadth=0)
        with pytest.raises(ValueError):
            AsSpec(1, parallel_link_fraction=1.5)

    def test_universe_validation(self):
        spec = tiny_universe()
        spec.validate()
        spec.c2p_edges.append((999, 100))
        with pytest.raises(ValueError):
            spec.validate()

    def test_universe_duplicate_asn(self):
        spec = tiny_universe()
        spec.ases.append(AsSpec(100))
        with pytest.raises(ValueError):
            spec.validate()

    def test_spec_of(self):
        spec = tiny_universe()
        assert spec.spec_of(300).name == "TR"
        with pytest.raises(KeyError):
            spec.spec_of(12345)


class TestAddressingPlan:
    def test_blocks_disjoint(self):
        assert infra_block(0).last < infra_block(1).first
        assert destination_prefix(0, 255).last \
            < destination_prefix(1, 0).first

    def test_loopback_inside_infra_block(self):
        assert loopback_address(3, 7) in infra_block(3)

    def test_every_hop_address_resolves(self):
        internet = Internet(tiny_universe())
        for network in internet.networks.values():
            for address in network.topology.interface_addresses():
                asn = internet.ip2as.lookup_single(address)
                assert asn != -1, int_to_ip(address)

    def test_infra_addresses_map_to_owner(self):
        internet = Internet(tiny_universe())
        for network in internet.networks.values():
            if network.spec.foreign_address_fraction:
                continue
            for router in network.topology.routers.values():
                assert internet.ip2as.lookup_single(router.loopback) \
                    == network.asn


class TestInternetConstruction:
    def test_builds_and_validates(self):
        internet = Internet(tiny_universe())
        assert len(internet.networks) == 5
        internet.graph.validate()

    def test_deterministic(self):
        first = Internet(tiny_universe())
        second = Internet(tiny_universe())
        for asn in first.networks:
            links_a = first.networks[asn].topology.links
            links_b = second.networks[asn].topology.links
            assert {(l.router_a, l.router_b, l.addr_a, l.addr_b, l.cost)
                    for l in links_a.values()} == \
                   {(l.router_a, l.router_b, l.addr_a, l.addr_b, l.cost)
                    for l in links_b.values()}

    def test_interas_links_symmetric(self):
        internet = Internet(tiny_universe())
        for asn, network in internet.networks.items():
            for neighbor, links in network.interas.items():
                reverse = internet.networks[neighbor].interas[asn]
                assert len(links) == len(reverse)
                for (_, local_addr, _, _, remote_addr) in links:
                    assert any(r[1] == remote_addr and r[4] == local_addr
                               for r in reverse)

    def test_destination_addresses(self):
        internet = Internet(tiny_universe())
        dests = internet.destination_addresses()
        # 2 prefixes each for 100,200,300(? default 1) ...
        by_asn = {}
        for addr, asn in dests:
            by_asn.setdefault(asn, []).append(addr)
        assert len(by_asn[501]) == 2
        assert len(by_asn[502]) == 2

    def test_egress_towards_is_deterministic(self):
        # Hot-potato egress, as the walk picks it
        # (DataPlane._transit_step): one peering link per destination
        # /24, whatever the flow.
        from test_sim_dataplane import DST_AS, OTHER_DST_AS, SRC_AS, \
            build

        internet = build(multi_link=True, prefix_count=8)
        dataplane = DataPlane(internet, era=0, egress_noise=0.0)
        entries = set()
        for dst, owner in internet.destination_addresses():
            if owner not in (DST_AS, OTHER_DST_AS):
                continue
            # The first hop inside the destination AS: where the
            # transit handed the probe over.
            entry = {next(hop.address for hop in
                          dataplane.forward_path(SRC_AS, 1, 99, dst,
                                                 flow_id)
                          if hop.asn == owner)
                     for flow_id in range(4)}
            assert len(entry) == 1
            entries |= entry
        # Two links per destination AS; some AS's /24s use both.
        assert len(entries) >= 3


class TestMplsLifecycle:
    def test_enable_builds_control_planes(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True, ldp=True))
        assert network.ldp is not None
        assert network.ldp.established_fecs

    def test_disable_forgets_labels(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True, ldp=True))
        network.apply_policy(MplsPolicy(enabled=False))
        assert network.labels is None
        assert network.ldp is None

    def test_te_sync_grows_and_shrinks(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=1.0, te_tunnels_per_pair=2))
        full = len(network.rsvp.sessions)
        assert full == 2 * len(network._te_pair_order)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.5, te_tunnels_per_pair=2))
        assert len(network.rsvp.sessions) < full
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.0, te_tunnels_per_pair=0))
        assert network.rsvp.sessions == []

    def test_te_pair_set_is_monotone(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.3, te_tunnels_per_pair=1))
        small = set(network._te_active)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=0.8, te_tunnels_per_pair=1))
        assert small <= set(network._te_active)

    def test_ldp_pair_active_monotone(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True,
                                        mpls_pair_fraction=0.4))
        active_small = {
            (i, e) for i in range(3) for e in range(3) if i != e
            and network.ldp_pair_active(i, e, internet.decision_cache)
        }
        network.apply_policy(MplsPolicy(enabled=True,
                                        mpls_pair_fraction=0.9))
        active_big = {
            (i, e) for i in range(3) for e in range(3) if i != e
            and network.ldp_pair_active(i, e, internet.decision_cache)
        }
        assert active_small <= active_big

    def test_tick_reoptimizes_dynamic_as(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(
            enabled=True, te_pair_fraction=1.0, te_tunnels_per_pair=1,
            te_reoptimize_per_cycle=True))
        before = {s.fec.instance for s in network.rsvp.sessions}
        network.tick()
        after = {s.fec.instance for s in network.rsvp.sessions}
        assert before == {0}
        assert after == {1}

    def test_churn_advances_allocators(self):
        internet = Internet(tiny_universe())
        network = internet.network(100)
        network.apply_policy(MplsPolicy(enabled=True, ldp=True))
        allocator = network.labels.allocator(0)
        before = allocator.allocated_total
        network.churn_labels(10)
        assert allocator.allocated_total == before + 10


class TestPaperUniverse:
    def test_builds_and_validates(self):
        scenario = paper_scenario(scale=0.4)
        internet = Internet(scenario.universe)
        internet.graph.validate()
        for network in internet.networks.values():
            network.topology.validate()

    def test_foreign_quirk_present(self):
        scenario = paper_scenario(scale=1.0)
        internet = Internet(scenario.universe)
        quirky = internet.network(65103)
        assert quirky.foreign_links
        link = quirky.topology.links[quirky.foreign_links[0]]
        owner = internet.ip2as.lookup_single(link.addr_a)
        assert owner != 65103
        assert owner >= 64512

    def test_scale_shrinks_routers(self):
        big = build_universe(scale=1.0)
        small = build_universe(scale=0.4)
        assert small.spec_of(7018).router_count \
            < big.spec_of(7018).router_count


class TestSegmentCacheCounters:
    """The internet-wide segment cache tallies hits/misses exactly."""

    def test_base_hit_after_miss(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        network = internet.network(100)
        first = cache.base_segments(network, 0, 7)
        second = cache.base_segments(network, 0, 7)
        assert first is second
        assert (cache.base_misses, cache.base_hits) == (1, 1)

    def test_degraded_calls_store_nothing_per_excluded_set(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        network = internet.network(100)
        on_dag = _dag_links(network, 0, 7)
        assert len(on_dag) >= 2
        for excluded in (on_dag[:1], on_dag[:1], on_dag[:2], on_dag):
            cache.degraded_segments(network, 0, 7, frozenset(excluded))
        # The calls only warm the pair's intact entries, whatever was
        # excluded.
        for table in vars(cache).values():
            if isinstance(table, dict):
                assert set(table) <= {(100, 0, 7)}

    def test_flap_cutting_some_paths_serves_the_surviving_ones(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        network = internet.network(100)
        base = cache.base_segments(network, 0, 7)
        assert len(base) >= 2
        # A link on the first intact path that the last one avoids.
        last = {link.link_id for _router, link in base[-1]}
        cut = next(link.link_id for _router, link in base[0]
                   if link.link_id not in last)
        degraded = cache.degraded_segments(network, 0, 7,
                                           frozenset([cut]))
        survivors = [steps for steps in base
                     if cut not in [link.link_id for _r, link in steps]]
        assert survivors and len(survivors) < len(base)
        assert len(degraded) == len(survivors)
        assert all(mine is theirs
                   for mine, theirs in zip(degraded, survivors))
        assert type(degraded) is list
        assert cache.spf_runs == 0

    def test_flap_cutting_every_shortest_path_runs_spf(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        network = internet.network(100)
        base = cache.base_segments(network, 0, 7)
        # A link every intact path takes.
        shared = set.intersection(*({link.link_id for _r, link in steps}
                                    for steps in base))
        assert shared
        excluded = frozenset(sorted(shared)[:1])
        degraded = cache.degraded_segments(network, 0, 7, excluded)
        assert cache.spf_runs == 1
        assert isinstance(degraded, SpfSegments)
        assert degraded == spf_to(network.topology, 7,
                                  excluded_links=excluded).all_paths(
                                      0, limit=cache.SEGMENT_LIMIT)

    def test_truncated_intact_list_runs_spf(self):
        # AS6453 of the full-scale paper universe has pairs whose intact
        # enumeration stops at SEGMENT_LIMIT; filtering such a list
        # would miss the shortest paths past the cut.
        internet = Internet(build_universe(scale=1.0))
        cache = internet.segment_cache
        network = internet.network(6453)
        limit = cache.SEGMENT_LIMIT
        entry, target = next(
            (entry, target) for entry in sorted(network.topology.routers)
            for target in sorted(network.topology.routers)
            if len(cache.base_segments(network, entry, target)) == limit)
        base = cache.base_segments(network, entry, target)
        for _router, link in base[0]:
            excluded = frozenset([link.link_id])
            reference = spf_to(network.topology, target,
                               excluded_links=excluded).all_paths(
                                   entry, limit=limit)
            filtered = [steps for steps in base if link.link_id
                        not in [step.link_id for _r, step in steps]]
            if filtered and filtered != reference:
                break
        else:
            pytest.fail("no flap where filtering the truncated list errs")
        runs = cache.spf_runs
        assert cache.degraded_segments(network, entry, target,
                                       excluded) == reference
        assert cache.spf_runs == runs + 1

    def test_flap_off_the_dag_serves_the_intact_segments(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        network = internet.network(100)
        off_dag = frozenset(network.topology.links) \
            - frozenset(_dag_links(network, 0, 7))
        assert off_dag
        base = cache.base_segments(network, 0, 7)
        assert cache.degraded_segments(network, 0, 7, off_dag) is base
        assert cache.spf_runs == 0

    def test_dataplanes_of_different_eras_share_the_cache(self):
        internet = Internet(tiny_universe())
        cache = internet.segment_cache
        first_era = DataPlane(internet, era=1)
        second_era = DataPlane(internet, era=2)
        assert first_era._cache is cache
        assert second_era._cache is cache
        dst = next(address for address, owner
                   in internet.destination_addresses() if owner == 502)
        first_era.forward_path(501, 0, 99, dst)
        misses, hits = cache.base_misses, cache.base_hits
        assert misses > 0
        # The later era enumerates no segment list of its own.
        second_era.forward_path(501, 0, 99, dst)
        assert (cache.base_misses, cache.base_hits) == \
            (misses, hits + misses)


def _dag_links(network, entry, target):
    """Sorted link ids on the intact equal-cost paths entry -> target."""
    dag = network.spf.to_destination(target)
    return sorted({link.link_id for path in dag.all_paths(entry)
                   for _router, link in path})


@lru_cache(maxsize=None)
def _segment_internet(which):
    """One shared Internet per universe, so cache entries made by
    earlier examples are re-checked as hits by later ones."""
    if which == "tiny":
        return Internet(tiny_universe())
    return Internet(build_universe(scale=0.4))


class TestDegradedSegmentsExact:
    """``degraded_segments`` equals recomputing the DAG without the
    excluded links, whichever way the cache serves it."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([("tiny", 100), ("scaled", 6453)]),
           st.data())
    def test_matches_a_direct_recomputation(self, universe, data):
        which, asn = universe
        internet = _segment_internet(which)
        network = internet.network(asn)
        routers = sorted(network.topology.routers)
        entry = data.draw(st.sampled_from(routers), label="entry")
        target = data.draw(st.sampled_from(routers), label="target")
        on_dag = _dag_links(network, entry, target)
        links = sorted(network.topology.links)
        excluded = frozenset(data.draw(
            st.sets(st.sampled_from(on_dag), max_size=2)
            if on_dag and data.draw(st.booleans(), label="touch dag")
            else st.just(set()), label="dag links")) | frozenset(
            data.draw(st.sets(st.sampled_from(links), max_size=4),
                      label="any links"))
        limit = internet.segment_cache.SEGMENT_LIMIT
        reference = spf_to(network.topology, target,
                           excluded_links=excluded).all_paths(
                               entry, limit=limit)
        if not reference:
            reference = network.spf.to_destination(target).all_paths(
                entry, limit=limit)
        assert internet.segment_cache.degraded_segments(
            network, entry, target, excluded) == reference


class TestFlapDegradedSegmentsDieWithTheirEra:
    """A study with many flaps keeps nothing per flap draw study-wide."""

    def test_study_tables_hold_only_intact_step_lists(self):
        simulator = ArkSimulator(paper_scenario(scale=0.4),
                                 snapshots_per_cycle=2, flap_rate=0.2)
        for cycle in range(1, 4):
            simulator.run_cycle(cycle)
        internet = simulator.internet
        cache = internet.segment_cache
        for table in vars(cache).values():
            if isinstance(table, dict):
                assert all(len(key) == 3 for key in table)
        intact = {id(steps) for segments in cache._base.values()
                  for steps in segments}
        decisions = internet.decision_cache
        entries = list(decisions.ip_hops.values()) \
            + list(decisions.ldp_hops.values())
        assert entries
        assert all(id(steps) in intact for steps, _hops in entries)
        # The flaps did force SPF rebuilds, whose hops stayed per era.
        assert cache.spf_runs > 0
