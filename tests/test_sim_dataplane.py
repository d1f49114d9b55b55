"""Unit tests for the data plane: forwarding, labels, PHP, visibility."""

import gc
from dataclasses import replace

import pytest

from repro.mpls.vendor import get_profile
from repro.net.ip import Prefix
from repro.obs import get_registry
from repro.sim.config import AsSpec, MplsPolicy, UniverseSpec
from repro.sim.dataplane import DataPlane, UnreachableError
from repro.sim.monitors import Monitor
from repro.sim.network import Internet, SegmentCache
from repro.sim.traceroute import TracerouteEngine
from repro.bgp.asgraph import Tier

SRC_AS = 65301
TRANSIT = 65000
DST_AS = 65201
OTHER_DST_AS = 65202


def linear_universe(transit_vendor="cisco", transit_routers=8,
                    ecmp=1, multi_link=False, prefix_count=2):
    """monitor network -> transit -> two destination stubs.

    With ``multi_link`` the destination stubs connect to the transit at
    two PoPs each, enabling egress-churn tests.
    """
    ases = [
        AsSpec(TRANSIT, "TR", Tier.TIER1, router_count=transit_routers,
               border_count=3, vendor=transit_vendor,
               ecmp_breadth=ecmp),
        # The source network is transit-tier so its uplink lands on one
        # of TR's core borders while the destination stubs share TR's
        # access border — guaranteeing a border-to-border LSP.
        AsSpec(SRC_AS, "SRC", Tier.TRANSIT, router_count=3,
               border_count=1, prefix_count=1),
        AsSpec(DST_AS, "D1", Tier.STUB, router_count=3, border_count=2,
               prefix_count=prefix_count),
        AsSpec(OTHER_DST_AS, "D2", Tier.STUB, router_count=3,
               border_count=2, prefix_count=prefix_count),
    ]
    repeat = 2 if multi_link else 1
    return UniverseSpec(
        ases=ases,
        c2p_edges=[(SRC_AS, TRANSIT)]
        + [(DST_AS, TRANSIT)] * repeat
        + [(OTHER_DST_AS, TRANSIT)] * repeat,
        p2p_edges=[],
        monitor_ases=[SRC_AS],
        seed=11,
    )


def build(policy=None, **kwargs):
    internet = Internet(linear_universe(**kwargs))
    if policy is not None:
        internet.network(TRANSIT).apply_policy(policy)
    return internet


def a_destination(internet, asn=DST_AS):
    for address, owner in internet.destination_addresses():
        if owner == asn:
            return address
    raise AssertionError(f"no destination in AS{asn}")


def path_for(internet, dst):
    src_net = internet.network(SRC_AS)
    dataplane = DataPlane(internet)
    return dataplane.forward_path(SRC_AS, 1, 99, dst)


class TestPlainForwarding:
    def test_path_reaches_destination(self):
        internet = build()
        dst = a_destination(internet)
        hops = path_for(internet, dst)
        assert hops[-1].address == dst
        assert hops[-1].router_id == -1

    def test_no_labels_without_mpls(self):
        internet = build()
        hops = path_for(internet, a_destination(internet))
        assert all(not hop.labels for hop in hops)

    def test_as_sequence_is_bgp_path(self):
        internet = build()
        hops = path_for(internet, a_destination(internet))
        asns = []
        for hop in hops:
            if not asns or asns[-1] != hop.asn:
                asns.append(hop.asn)
        assert asns == [SRC_AS, TRANSIT, DST_AS]

    def test_unreachable_raises(self):
        internet = build()
        with pytest.raises(UnreachableError):
            DataPlane(internet).forward_path(SRC_AS, 1, 99,
                                             Prefix.parse(
                                                 "203.0.113.0/24").first)

    def test_same_flow_same_path(self):
        internet = build(ecmp=2)
        dst = a_destination(internet)
        assert path_for(internet, dst) == path_for(internet, dst)


class TestLdpForwarding:
    def test_transit_shows_labels(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        hops = path_for(internet, a_destination(internet))
        labelled = [h for h in hops if h.labels]
        assert labelled
        assert all(h.asn == TRANSIT for h in labelled)

    def test_labels_match_ldp_bindings(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        network = internet.network(TRANSIT)
        hops = path_for(internet, a_destination(internet))
        for hop in hops:
            if hop.labels:
                lfib = network.labels.lfib(hop.router_id)
                assert hop.labels[0] in {
                    lfib.label_for(fec)
                    for fec in network.ldp.established_fecs
                }

    def test_php_hides_egress_label(self):
        """The hop after the labelled run (the egress LER) is unlabeled,
        and it is a border router of the transit AS."""
        internet = build(MplsPolicy(enabled=True, ldp=True))
        hops = path_for(internet, a_destination(internet))
        last_labelled = max(
            index for index, hop in enumerate(hops) if hop.labels)
        exit_hop = hops[last_labelled + 1]
        assert exit_hop.asn == TRANSIT
        assert not exit_hop.labels
        network = internet.network(TRANSIT)
        assert network.topology.routers[exit_hop.router_id].is_border

    def test_pair_gating_disables_tunnel(self):
        internet = build(MplsPolicy(enabled=True, ldp=True,
                                    mpls_pair_fraction=0.0))
        hops = path_for(internet, a_destination(internet))
        assert all(not hop.labels for hop in hops)

    def test_vendor_label_range(self):
        internet = build(MplsPolicy(enabled=True, ldp=True),
                         transit_vendor="juniper")
        profile = get_profile("juniper")
        hops = path_for(internet, a_destination(internet))
        for hop in hops:
            if hop.labels:
                assert profile.label_min <= hop.labels[0] \
                    <= profile.label_max


class TestTeForwarding:
    def test_te_labels_differ_from_ldp(self):
        policy = MplsPolicy(enabled=True, ldp=True,
                            te_pair_fraction=1.0, te_tunnels_per_pair=2)
        internet = build(policy)
        network = internet.network(TRANSIT)
        hops = path_for(internet, a_destination(internet))
        labelled = [h for h in hops if h.labels]
        assert labelled
        session_labels = {
            label for session in network.rsvp.sessions
            for label in session.labels.values()
        }
        assert all(h.labels[0] in session_labels for h in labelled)

    def test_destinations_spread_over_tunnels(self):
        policy = MplsPolicy(enabled=True, ldp=False,
                            te_pair_fraction=1.0, te_tunnels_per_pair=4)
        internet = build(policy, prefix_count=8)
        network = internet.network(TRANSIT)
        tunnel_of = {
            label: session.fec.tunnel_id
            for session in network.rsvp.sessions
            for label in session.labels.values()
        }
        dataplane = DataPlane(internet)
        picked = set()
        for dst, owner in internet.destination_addresses():
            if owner not in (DST_AS, OTHER_DST_AS):
                continue
            for flow_id in range(3):
                tunnels = {tunnel_of[hop.labels[0]] for hop in
                           dataplane.forward_path(SRC_AS, 1, 99, dst,
                                                  flow_id)
                           if hop.labels}
                # One tunnel per destination, whatever the flow.
                assert len(tunnels) == 1
                picked |= tunnels
        assert len(picked) >= 2


class TestVisibilityModes:
    def test_no_ttl_propagate_compresses_to_opaque_hop(self):
        """Without ttl-propagate the LSRs vanish; with RFC 4950 the one
        revealing hop quotes an LSE whose TTL betrays the hidden length
        (the *opaque* tunnel of the revelation taxonomy)."""
        policy = MplsPolicy(enabled=True, ldp=True, ttl_propagate=False)
        internet = build(policy, transit_routers=10)
        transparent = path_for(internet, a_destination(internet))
        internet2 = build(MplsPolicy(enabled=True, ldp=True),
                          transit_routers=10)
        explicit = path_for(internet2, a_destination(internet2))
        assert len(transparent) < len(explicit)
        labelled = [hop for hop in transparent if hop.labels]
        assert len(labelled) <= 1
        for hop in labelled:
            assert hop.lse_ttl > 200  # near-255: never propagated

    def test_no_ttl_propagate_no_rfc4950_fully_invisible(self):
        policy = MplsPolicy(enabled=True, ldp=True, ttl_propagate=False)
        internet = build(policy, transit_routers=10,
                         transit_vendor="legacy")
        hops = path_for(internet, a_destination(internet))
        assert all(not hop.quotes_labels or not hop.labels
                   for hop in hops)

    def test_legacy_vendor_no_rfc4950(self):
        """Implicit tunnels: LSRs visible, labels never quoted."""
        internet = build(MplsPolicy(enabled=True, ldp=True),
                         transit_vendor="legacy")
        hops = path_for(internet, a_destination(internet))
        transit_hops = [h for h in hops if h.asn == TRANSIT]
        assert transit_hops
        assert all(not h.quotes_labels for h in transit_hops)


class TestRoutingNoise:
    def test_egress_churn_changes_some_paths(self):
        internet = build(multi_link=True)
        dst_addrs = [address for address, _ in
                     internet.destination_addresses()][:8]
        calm = DataPlane(internet, era=0, egress_noise=0.0)
        base = [calm.forward_path(SRC_AS, 1, 99, dst)
                for dst in dst_addrs]
        differences = 0
        for era in range(1, 6):
            stormy = DataPlane(internet, era=era, egress_noise=0.3)
            differences += sum(
                1 for dst, reference in zip(dst_addrs, base)
                if stormy.forward_path(SRC_AS, 1, 99, dst) != reference
            )
        assert differences > 0

    def test_egress_churn_noop_on_single_links(self):
        internet = build(multi_link=False)
        dst = a_destination(internet)
        calm = DataPlane(internet, era=0, egress_noise=0.0)
        stormy = DataPlane(internet, era=5, egress_noise=0.9)
        assert calm.forward_path(SRC_AS, 1, 99, dst) \
            == stormy.forward_path(SRC_AS, 1, 99, dst)

    def test_invalid_egress_noise(self):
        internet = build()
        with pytest.raises(ValueError):
            DataPlane(internet, egress_noise=1.0)

    def test_flap_reroutes_when_alternative_exists(self):
        """A flapped link with an equal-cost alternative reroutes; the
        same flap pattern never disconnects (fallback to intact DAG)."""
        internet = build(ecmp=2, transit_routers=14)
        dst_addrs = [address for address, _ in
                     internet.destination_addresses()][:8]
        calm = DataPlane(internet, era=0, flap_rate=0.0)
        base = [calm.forward_path(SRC_AS, 1, 99, dst)
                for dst in dst_addrs]
        rerouted = 0
        for era in range(1, 8):
            stormy = DataPlane(internet, era=era, flap_rate=0.15)
            for dst, reference in zip(dst_addrs, base):
                hops = stormy.forward_path(SRC_AS, 1, 99, dst)
                assert hops[-1].address == dst  # still delivered
                rerouted += hops != reference
        assert rerouted > 0

    def test_flap_rate_zero_is_stable(self):
        internet = build(ecmp=2)
        dst = a_destination(internet)
        first = DataPlane(internet, era=1, flap_rate=0.0)
        second = DataPlane(internet, era=2, flap_rate=0.0)
        assert first.forward_path(SRC_AS, 1, 99, dst) \
            == second.forward_path(SRC_AS, 1, 99, dst)

    def test_flapped_links_deterministic_per_era(self):
        internet = build()
        first = DataPlane(internet, era=7, flap_rate=0.3)
        second = DataPlane(internet, era=7, flap_rate=0.3)
        assert first.flapped_links(TRANSIT) \
            == second.flapped_links(TRANSIT)

    def test_invalid_flap_rate(self):
        internet = build()
        with pytest.raises(ValueError):
            DataPlane(internet, flap_rate=1.5)


class TestMemoization:
    """The per-era route/hop caches are exact and fully observable."""

    def test_memoized_paths_match_uncached(self):
        internet = build(MplsPolicy(enabled=True, ldp=True), ecmp=2)
        cached = DataPlane(internet)
        uncached = DataPlane(internet, memoize=False)
        for asn in (DST_AS, OTHER_DST_AS):
            dst = a_destination(internet, asn)
            for flow_id in range(4):
                assert cached.forward_path(
                    SRC_AS, 1, 99, dst, flow_id) == \
                    uncached.forward_path(SRC_AS, 1, 99, dst, flow_id)
        # The uncached plane resolves every route afresh.
        cache = uncached.route_cache
        assert (cache.misses, cache.hits) == (8, 0)

    def test_route_cache_counts_once_per_forward(self):
        internet = build()
        dataplane = DataPlane(internet)
        dst = a_destination(internet)
        dataplane.forward_path(SRC_AS, 1, 99, dst)
        dataplane.forward_path(SRC_AS, 1, 99, dst, flow_id=1)
        cache = dataplane.route_cache
        assert (cache.misses, cache.hits) == (1, 1)

    def test_unreachable_is_memoized_with_identical_error(self):
        internet = build()
        dataplane = DataPlane(internet)
        dst = Prefix.parse("203.0.113.0/24").first
        messages = []
        for _ in range(2):
            with pytest.raises(UnreachableError) as err:
                dataplane.forward_path(SRC_AS, 1, 99, dst)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        # The negative entry is cached too: one miss, then a hit.
        cache = dataplane.route_cache
        assert (cache.misses, cache.hits) == (1, 1)

    def test_hop_observations_are_shared_flyweights(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        dataplane = DataPlane(internet)
        dst = a_destination(internet)
        first = dataplane.forward_path(SRC_AS, 1, 99, dst)
        second = dataplane.forward_path(SRC_AS, 1, 99, dst)
        assert first == second
        # Hops materialized by _walk_as come back as cached immutable
        # tuples, so repeated traces share the same HopObs objects.
        assert any(a is b for a, b in zip(first, second))
        assert dataplane.hop_cache_hits > 0
        assert dataplane.hop_cache_misses > 0

    def test_flush_publishes_deltas_once(self):
        registry = get_registry()
        internet = build()
        dataplane = DataPlane(internet)
        dst = a_destination(internet)
        dataplane.forward_path(SRC_AS, 1, 99, dst)
        before = registry.snapshot()
        dataplane.flush_cache_metrics()
        dataplane.flush_cache_metrics()  # no new activity: no-op
        delta = registry.diff(before, registry.snapshot())

        def total(name):
            return sum(entry["value"]
                       for entry in delta.get(name, {}).get("values",
                                                            []))

        assert total("route_cache_misses_total") == 1
        assert total("route_cache_hits_total") == 0


def rich_universe():
    """A mesh transit with parallel links, multi-homed neighbors and
    an ECMP source and destinations: every forwarding decision has
    several outcomes, so a memo keyed on too little shows up."""
    ases = [
        AsSpec(TRANSIT, "TR", Tier.TIER1, router_count=16,
               border_count=4, ecmp_breadth=3,
               parallel_link_fraction=0.3),
        AsSpec(SRC_AS, "SRC", Tier.TRANSIT, router_count=6,
               border_count=2, ecmp_breadth=2, prefix_count=1),
        AsSpec(DST_AS, "D1", Tier.STUB, router_count=6, border_count=2,
               ecmp_breadth=2, prefix_count=3),
        AsSpec(OTHER_DST_AS, "D2", Tier.STUB, router_count=5,
               border_count=2, prefix_count=2),
    ]
    return UniverseSpec(
        ases=ases,
        c2p_edges=[(SRC_AS, TRANSIT)] * 2 + [(DST_AS, TRANSIT)] * 3
        + [(OTHER_DST_AS, TRANSIT)] * 2,
        p2p_edges=[],
        monitor_ases=[SRC_AS],
        seed=23,
    )


# The control-plane configurations the cross-era test cycles through:
# LDP on a growing share of border pairs; LDP plus two-tunnel TE and
# SR policies with per-cycle re-optimization; single-tunnel TE over
# opaque tunnels; three TE tunnels per pair (raising the count of the
# pairs the single-tunnel era left active); SR policies with no TE and
# no LDP (tearing all three down).
_ERA_POLICIES = (
    MplsPolicy(enabled=True, ldp=True, mpls_pair_fraction=0.4),
    MplsPolicy(enabled=True, ldp=True, mpls_pair_fraction=0.75),
    MplsPolicy(enabled=True, ldp=True, mpls_pair_fraction=0.7,
               te_pair_fraction=0.25, te_tunnels_per_pair=2,
               te_reoptimize_per_cycle=True, sr_pair_fraction=0.5,
               sr_policies_per_pair=2, sr_waypoints=2),
    MplsPolicy(enabled=True, ldp=True, ldp_internal=False,
               ttl_propagate=False, mpls_pair_fraction=0.55,
               te_pair_fraction=0.5, te_tunnels_per_pair=1),
    MplsPolicy(enabled=True, ldp=True, mpls_pair_fraction=0.5,
               te_pair_fraction=0.6, te_tunnels_per_pair=3),
    MplsPolicy(enabled=True, ldp=False, sr_pair_fraction=0.8,
               sr_policies_per_pair=3),
)


def _forward_or_error(dataplane, src_asn, router, src_addr, dst, flow_id):
    try:
        return dataplane.forward_path(src_asn, router, src_addr, dst,
                                      flow_id)
    except UnreachableError as err:
        return str(err)


class TestStudyScopedDecisions:
    """The study-wide decision table is exact across eras."""

    def test_memoized_matches_fresh_across_eras(self):
        internet = Internet(rich_universe())
        transit = internet.network(TRANSIT)
        assert max(len(links)
                   for links in transit.interas.values()) >= 2
        sources = [(asn, router, 0x0A630000 + 16 * index + router)
                   for index, asn in enumerate((SRC_AS, DST_AS))
                   for router in internet.network(asn).topology.routers]
        dsts = [address for address, _ in
                internet.destination_addresses()]
        dsts.append(Prefix.parse("203.0.113.0/24").first)
        uses = {"te": 0, "sr": 0, "ecmp": 0, "split": 0}
        for era in range(24):
            policy = _ERA_POLICIES[era % len(_ERA_POLICIES)]
            transit.apply_policy(policy)
            internet.tick()
            memoized = DataPlane(internet, era=era, flap_rate=0.3,
                                 egress_noise=0.5)
            fresh = DataPlane(internet, era=era, flap_rate=0.3,
                              egress_noise=0.5, memoize=False)
            for src_asn, router, src_addr in sources:
                for dst in dsts:
                    for flow_id in range(4):
                        assert _forward_or_error(
                            memoized, src_asn, router, src_addr, dst,
                            flow_id) == _forward_or_error(
                            fresh, src_asn, router, src_addr, dst,
                            flow_id), (era, src_asn, router, dst, flow_id)
            uses["te"] += bool(transit.rsvp and transit.rsvp.sessions)
            uses["sr"] += policy.uses_sr
            # The era's plans carry the policy's TE and SR decisions.
            plans = memoized._plans.values()
            assert any(plan.te_sessions for plan in plans) \
                == policy.uses_te
            assert any(plan.sr_policies for plan in plans) \
                == policy.uses_sr
            uses["split"] += any(len(plan.te_sessions) > 1
                                 or len(plan.sr_policies) > 1
                                 for plan in plans)
        decisions = internet.decision_cache
        uses["ecmp"] = len(decisions.picks)
        # Every branch the table feeds was exercised.
        assert all(uses.values()), uses
        assert decisions.routes and decisions.egress \
            and decisions.border_hops and decisions.ldp_draws \
            and decisions.fecs and decisions.selectors
        assert any(entry[0] is None for entry in decisions.routes.values())

    def test_unmemoized_dataplane_leaves_the_table_untouched(self):
        internet = build(MplsPolicy(enabled=True, ldp=True,
                                    mpls_pair_fraction=0.5),
                         ecmp=2, multi_link=True)
        dataplane = DataPlane(internet, egress_noise=0.5,
                              memoize=False)
        for dst, _ in internet.destination_addresses():
            dataplane.forward_path(SRC_AS, 1, 99, dst, 1)
        # Neither the study's table nor the plane's own keeps anything
        # (the hop tables ``ip_hops``, ``ldp_hops`` included) ...
        for decisions in (internet.decision_cache, dataplane.decisions):
            assert not any(getattr(decisions, name)
                           for name in decisions.__slots__)
        assert not dataplane._plans and not dataplane._te_hops
        # ... so every hop tuple is built afresh, each one a miss.
        assert dataplane.hop_cache_hits == 0
        assert dataplane.hop_cache_misses > 0

    def test_later_eras_hit_the_study_route_table(self):
        internet = build()
        dst = a_destination(internet)
        first = DataPlane(internet, era=1)
        second = DataPlane(internet, era=2)
        first.forward_path(SRC_AS, 1, 99, dst)
        second.forward_path(SRC_AS, 1, 99, dst)
        assert (first.route_cache.misses, first.route_cache.hits) \
            == (1, 0)
        assert (second.route_cache.misses, second.route_cache.hits) \
            == (0, 1)


class TestTeTunnelCount:
    """Changing an active pair's tunnel count keeps RSVP-TE exact."""

    def test_raised_count_signals_the_added_tunnels(self):
        internet = Internet(rich_universe())
        transit = internet.network(TRANSIT)
        single = MplsPolicy(enabled=True, ldp=True, te_pair_fraction=0.5,
                            te_tunnels_per_pair=1)
        transit.apply_policy(single)
        pairs = sorted(transit._te_active)
        assert pairs
        transit.apply_policy(replace(single, te_tunnels_per_pair=3))
        for ingress, egress in pairs:
            sessions = transit.te_sessions(ingress, egress)
            assert len(sessions) == 3 and all(sessions), \
                (ingress, egress, sessions)
        internet.tick()
        memoized = DataPlane(internet, era=1)
        fresh = DataPlane(internet, era=1, memoize=False)
        assert _all_paths(memoized, internet) \
            == _all_paths(fresh, internet)
        # TE off tears every tunnel down, the added ones included.
        transit.apply_policy(MplsPolicy(enabled=True, ldp=True))
        assert not transit.rsvp.sessions and not transit._te_active


_LDP = MplsPolicy(enabled=True, ldp=True)
_REOPTIMIZING_TE = MplsPolicy(enabled=True, ldp=True, te_pair_fraction=1.0,
                              te_tunnels_per_pair=2,
                              te_reoptimize_per_cycle=True)


def _all_paths(dataplane, internet):
    """Every source router to every destination, over two flows."""
    return [
        _forward_or_error(dataplane, SRC_AS, router, 0x0A630000 + router,
                          dst, flow_id)
        for flow_id in range(2)
        for router in internet.network(SRC_AS).topology.routers
        for dst, _ in internet.destination_addresses()
    ]


def _restore_te_and_sr(internet):
    donor = build(replace(_REOPTIMIZING_TE, sr_pair_fraction=1.0,
                          sr_policies_per_pair=2), ecmp=2)
    internet.restore_state(donor.capture_state())


class TestWalkPlans:
    """Era walk plans decide each AS walk once, and exactly."""

    def test_te_only_pairs_enumerate_no_segments(self):
        internet = build(MplsPolicy(enabled=True, ldp=False,
                                    te_pair_fraction=1.0,
                                    te_tunnels_per_pair=2))
        dataplane = DataPlane(internet)
        dataplane.forward_path(SRC_AS, 1, 99, a_destination(internet))
        transit = [plan for (asn, *_), plan in dataplane._plans.items()
                   if asn == TRANSIT]
        assert transit and all(plan.te_sessions for plan in transit)
        assert all(plan.segments is None for plan in transit)

    @pytest.mark.parametrize("start,mutate,changes", [
        (_LDP, lambda internet: internet.network(TRANSIT)
         .apply_policy(_REOPTIMIZING_TE), True),
        (_REOPTIMIZING_TE, lambda internet: internet.tick(), True),
        (_REOPTIMIZING_TE, lambda internet: internet.network(TRANSIT)
         .churn_labels(1000), False),
        (_LDP, _restore_te_and_sr, True),
    ], ids=["apply_policy", "tick", "churn_labels", "restore_state"])
    def test_fresh_dataplane_sees_the_new_decisions(self, start, mutate,
                                                    changes):
        """A DataPlane built after a control-plane change plans
        afresh."""
        internet = build(start, ecmp=2)
        old = _all_paths(DataPlane(internet, era=0), internet)
        mutate(internet)
        new = _all_paths(DataPlane(internet, era=0), internet)
        assert new == _all_paths(DataPlane(internet, memoize=False),
                                 internet)
        assert (new != old) is changes


def _labels_on(dataplane, dst):
    return [hop.labels for hop in dataplane.forward_path(SRC_AS, 1, 99,
                                                        dst)]


def _relabelled(internet):
    """Re-enable LDP on the transit after advancing its allocators,
    so every LDP FEC binds a different label than on a fresh build."""
    transit = internet.network(TRANSIT)
    transit.apply_policy(MplsPolicy(enabled=True, ldp=False))
    transit.churn_labels(1000)
    transit.apply_policy(_LDP)


class TestStudyScopedHops:
    """IP and LDP hop tuples are shared across eras, and only where
    they are exact."""

    @pytest.mark.parametrize("policy", [None, _LDP])
    def test_later_eras_share_the_same_tuples(self, policy):
        internet = build(policy)
        dst = a_destination(internet)
        first = DataPlane(internet, era=0)
        second = DataPlane(internet, era=1)
        before = first.forward_path(SRC_AS, 1, 99, dst)
        after = second.forward_path(SRC_AS, 1, 99, dst)
        # Every hop, the destination host included, is the very same
        # flyweight.
        assert len(before) == len(after)
        assert all(a is b for a, b in zip(before, after))
        assert before[-1].router_id == -1
        assert first.hop_cache_misses > 0
        assert (second.hop_cache_hits, second.hop_cache_misses) \
            == (first.hop_cache_misses, 0)
        decisions = internet.decision_cache
        if policy is None:
            assert decisions.ip_hops and not decisions.ldp_hops
        else:
            assert decisions.ldp_hops
            assert any(hop.labels for hop in before)
        # So is traceroute's first hop, the monitor's gateway.
        monitor = Monitor(name="mon", asn=SRC_AS, attachment_router=1,
                          gateway_addr=0x0A000201, src_addr=99)
        TracerouteEngine(first).trace(monitor, dst)
        (gateway,) = decisions.gateway_hops.values()
        TracerouteEngine(second).trace(monitor, dst)
        (again,) = decisions.gateway_hops.values()
        assert again is gateway
        assert (gateway.asn, gateway.router_id, gateway.address) == \
            (SRC_AS, 1, 0x0A000201)

    def test_ldp_tuple_not_reused_after_disable_enable(self):
        internet = build(_LDP)
        dst = a_destination(internet)
        old = _labels_on(DataPlane(internet, era=0), dst)
        transit = internet.network(TRANSIT)
        transit.apply_policy(MplsPolicy(enabled=False))
        _relabelled(internet)
        new = _labels_on(DataPlane(internet, era=1), dst)
        assert new == _labels_on(DataPlane(internet, memoize=False), dst)
        assert new != old

    def test_ldp_tuple_not_reused_after_restore_state(self):
        internet = build(_LDP)
        dst = a_destination(internet)
        old = _labels_on(DataPlane(internet, era=0), dst)
        donor = build()
        _relabelled(donor)
        internet.restore_state(donor.capture_state())
        new = _labels_on(DataPlane(internet, era=1), dst)
        assert new == _labels_on(DataPlane(donor, memoize=False), dst)
        assert new != old

    def test_own_segment_cache_never_gets_a_stale_tuple(self):
        internet = build(_LDP, ecmp=2, transit_routers=12)
        dsts = [dst for dst, _ in internet.destination_addresses()]
        fresh = DataPlane(internet, memoize=False)
        expected = [fresh.forward_path(SRC_AS, 1, 99, dst)
                    for dst in dsts]
        # A replaced SegmentCache frees its segment lists, so a list's
        # id can come back on a new one.
        for era in range(6):
            internet.segment_cache = SegmentCache()
            dataplane = DataPlane(internet, era=era)
            assert [dataplane.forward_path(SRC_AS, 1, 99, dst)
                    for dst in dsts] == expected
            del dataplane
            gc.collect()

    def test_hit_requires_the_very_segment_it_was_built_from(self):
        internet = build(_LDP, ecmp=2, transit_routers=12)
        dsts = [dst for dst, _ in internet.destination_addresses()]
        internet.segment_cache = SegmentCache()
        first = DataPlane(internet)
        expected = [first.forward_path(SRC_AS, 1, 99, dst)
                    for dst in dsts]
        # Forge the reused-id hazard: every key now maps to an entry
        # built from another list with the same content.
        decisions = internet.decision_cache
        forged = 0
        for table in (decisions.ip_hops, decisions.ldp_hops):
            for key, (steps, hops) in list(table.items()):
                table[key] = (list(steps), hops[::-1])
                forged += 1
        second = DataPlane(internet, era=1)
        assert [second.forward_path(SRC_AS, 1, 99, dst)
                for dst in dsts] == expected
        # Each forged entry is rebuilt once, never served.
        assert second.hop_cache_misses == forged
