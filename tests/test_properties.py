"""Property-based tests over the system's core invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classification import TunnelClass, classify_iotp
from repro.core.extraction import complete_signatures, explicit_runs, \
    extract_all, extract_lsps, traces_with_tunnels
from repro.core.pipeline import dataset_stats
from repro.net.ip2as import Ip2AsMapper
from repro.obs import get_registry
from repro.core.model import Iotp, Lsp
from repro.igp.spf import spf_to
from repro.igp.topology import Router, Topology
from repro.mpls.lse import LabelStackEntry
from repro.traces import StopReason, Trace, TraceHop


# -- random topology strategy -------------------------------------------------

@st.composite
def topologies(draw):
    """Connected random topologies with 3..10 routers."""
    count = draw(st.integers(min_value=3, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    topology = Topology(asn=65000)
    for router_id in range(count):
        topology.add_router(Router(router_id, loopback=10_000 + router_id))
    next_addr = [0]

    def pair():
        next_addr[0] += 2
        return 100 + next_addr[0] - 2, 100 + next_addr[0] - 1

    for router_id in range(1, count):
        a, b = pair()
        topology.add_link(rng.randrange(router_id), router_id, a, b,
                          cost=rng.randint(1, 4))
    extra = draw(st.integers(min_value=0, max_value=count))
    for _ in range(extra):
        left = rng.randrange(count)
        right = rng.randrange(count)
        if left != right:
            a, b = pair()
            topology.add_link(left, right, a, b, cost=rng.randint(1, 4))
    return topology


class TestSpfProperties:
    @settings(max_examples=60, deadline=None)
    @given(topologies())
    def test_bellman_consistency(self, topology):
        """dist[r] == dist[next_hop] + cost for every ECMP successor,
        and no neighbor offers anything shorter (Bellman optimality)."""
        destination = 0
        result = spf_to(topology, destination)
        for router_id in topology.routers:
            if router_id == destination:
                assert result.distance[router_id] == 0
                continue
            assert result.reachable(router_id)
            best = result.distance[router_id]
            for next_hop, link in result.next_hops(router_id):
                assert best == result.distance[next_hop] + link.cost
            for neighbor, link in topology.neighbors(router_id):
                assert best <= result.distance[neighbor] + link.cost

    @settings(max_examples=60, deadline=None)
    @given(topologies())
    def test_enumerated_paths_cost_matches_distance(self, topology):
        result = spf_to(topology, 0)
        for router_id in topology.routers:
            if router_id == 0:
                continue
            for path in result.all_paths(router_id, limit=32):
                cost = sum(link.cost for _, link in path)
                assert cost == result.distance[router_id]
                assert path[-1][0] == 0

    @settings(max_examples=60, deadline=None)
    @given(topologies())
    def test_paths_are_distinct_and_counted(self, topology):
        result = spf_to(topology, 0)
        for router_id in topology.routers:
            paths = result.all_paths(router_id, limit=1000)
            keys = {tuple(link.link_id for _, link in path)
                    for path in paths}
            assert len(keys) == len(paths)
            assert result.path_count(router_id) == len(paths)


# -- random IOTP strategy ------------------------------------------------------

@st.composite
def iotps(draw):
    """IOTPs with 1..4 LSPs over a small address/label alphabet.

    Small alphabets force address collisions so common-IP and label
    comparisons actually trigger.
    """
    branch_count = draw(st.integers(min_value=1, max_value=4))
    iotp = Iotp(asn=65001, entry=1, exit=2)
    for index in range(branch_count):
        hops = tuple(
            (draw(st.integers(min_value=10, max_value=15)),
             draw(st.integers(min_value=100, max_value=104)))
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        )
        iotp.add(Lsp(entry=1, exit=2, hops=hops, complete=True,
                     monitor="m", dst=index, asn=65001),
                 dst_asn=index)
    return iotp


class TestClassificationProperties:
    @settings(max_examples=200, deadline=None)
    @given(iotps())
    def test_verdict_is_consistent_with_definition(self, iotp):
        verdict = classify_iotp(iotp)
        common = iotp.common_addresses()
        if iotp.width == 1:
            assert verdict.tunnel_class is TunnelClass.MONO_LSP
        elif not common:
            assert verdict.tunnel_class is TunnelClass.UNCLASSIFIED
        elif any(len(iotp.labels_at(a)) > 1 for a in common):
            assert verdict.tunnel_class is TunnelClass.MULTI_FEC
        else:
            assert verdict.tunnel_class is TunnelClass.MONO_FEC
            assert verdict.subclass is not None

    @settings(max_examples=200, deadline=None)
    @given(iotps())
    def test_metrics_bounds(self, iotp):
        verdict = classify_iotp(iotp)
        assert verdict.width == iotp.width >= 1
        assert 0 <= verdict.symmetry < max(1, verdict.length + 1)
        lengths = [lsp.length for lsp in iotp.lsps.values()]
        assert verdict.length == max(lengths)
        assert verdict.symmetry == max(lengths) - min(lengths)

    @settings(max_examples=120, deadline=None)
    @given(iotps())
    def test_php_heuristic_only_touches_unclassified(self, iotp):
        plain = classify_iotp(iotp, php_heuristic=False)
        resolved = classify_iotp(iotp, php_heuristic=True)
        if plain.tunnel_class is not TunnelClass.UNCLASSIFIED:
            assert resolved.tunnel_class is plain.tunnel_class
        else:
            assert resolved.tunnel_class in (TunnelClass.MONO_FEC,
                                             TunnelClass.MULTI_FEC)


# -- random trace strategy ------------------------------------------------------

@st.composite
def traces(draw):
    """Traces mixing plain, labeled and anonymous hops."""
    hop_count = draw(st.integers(min_value=1, max_value=14))
    hops = []
    for ttl in range(1, hop_count + 1):
        kind = draw(st.sampled_from(["plain", "label", "anon"]))
        if kind == "anon":
            hops.append(TraceHop(probe_ttl=ttl, address=None))
        elif kind == "label":
            label = draw(st.integers(min_value=16, max_value=2**20 - 1))
            hops.append(TraceHop(
                probe_ttl=ttl, address=1000 + ttl, rtt_ms=1.0,
                quoted_stack=(LabelStackEntry(label, bottom=True,
                                              ttl=1),),
            ))
        else:
            hops.append(TraceHop(probe_ttl=ttl, address=1000 + ttl,
                                 rtt_ms=1.0))
    return Trace(monitor="m", src=1, dst=2, timestamp=0.0,
                 stop_reason=StopReason.COMPLETED, hops=hops)


class TestExtractionProperties:
    @settings(max_examples=200, deadline=None)
    @given(traces())
    def test_every_labeled_hop_lands_in_exactly_one_lsp(self, trace):
        lsps = extract_lsps(trace)
        extracted = [hop for lsp in lsps for hop in lsp.hops]
        labeled = [(hop.address, hop.labels[0]) for hop in trace.hops
                   if hop.has_labels]
        assert sorted(extracted) == sorted(labeled)

    @settings(max_examples=200, deadline=None)
    @given(traces())
    def test_complete_lsps_have_context(self, trace):
        for lsp in extract_lsps(trace):
            if lsp.complete:
                assert lsp.entry is not None
                assert lsp.exit is not None
                assert lsp.hops
            assert lsp.entry is None or lsp.entry not in \
                {address for address, _ in lsp.hops}

    @settings(max_examples=200, deadline=None)
    @given(traces())
    def test_extraction_is_deterministic(self, trace):
        first = [lsp.signature for lsp in extract_lsps(trace)]
        second = [lsp.signature for lsp in extract_lsps(trace)]
        assert first == second


@st.composite
def mixed_traces(draw):
    """Traces adding opaque (LSE-TTL 255) and labeled-anonymous hops."""
    hop_count = draw(st.integers(min_value=0, max_value=12))
    hops = []
    for ttl in range(1, hop_count + 1):
        kind = draw(st.sampled_from(
            ["plain", "label", "label", "opaque", "anon", "anon-label"]))
        address = None if kind.startswith("anon") else 1000 + ttl % 5
        stack = ()
        if kind in ("label", "opaque", "anon-label"):
            label = draw(st.integers(min_value=16, max_value=19))
            stack = (LabelStackEntry(
                label, bottom=True,
                ttl=255 if kind == "opaque" else draw(
                    st.integers(min_value=0, max_value=2))),)
        hops.append(TraceHop(probe_ttl=ttl, address=address,
                             quoted_stack=stack))
    return Trace(monitor="m", src=1, dst=2, timestamp=0.0,
                 stop_reason=StopReason.COMPLETED, hops=hops)


def _extraction_counts(run):
    registry = get_registry()
    before = registry.snapshot()
    value = run()
    delta = registry.diff(before, registry.snapshot())
    return value, {name: delta.get(name) for name in
                   ("extraction_traces_scanned_total",
                    "lsps_extracted_total")}


class TestRunScannerProperties:
    """The scanner's three consumers agree with full extraction."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(mixed_traces(), max_size=4))
    def test_complete_signatures_match_extract_all(self, snapshot):
        lean, lean_counts = _extraction_counts(
            lambda: complete_signatures(snapshot))
        lsps, full_counts = _extraction_counts(
            lambda: extract_all(snapshot))
        assert lean == {lsp.signature for lsp in lsps if lsp.complete}
        assert lean_counts == full_counts

    @settings(max_examples=300, deadline=None)
    @given(st.lists(mixed_traces(), max_size=4))
    def test_tunnel_counts_agree(self, snapshot):
        expected = sum(1 for trace in snapshot if extract_lsps(trace))
        assert traces_with_tunnels(snapshot) == expected
        stats = dataset_stats(snapshot, Ip2AsMapper())
        assert stats.traces_with_tunnels == expected

    @settings(max_examples=300, deadline=None)
    @given(mixed_traces())
    def test_runs_are_disjoint_and_ordered(self, trace):
        runs = list(explicit_runs(trace.hops))
        assert len(runs) == len(extract_lsps(trace))
        for (_, end, _), (start, _, _) in zip(runs, runs[1:]):
            assert end < start
