"""Shared topology builders for the test suite."""

from repro.bgp.asgraph import Tier
from repro.igp.topology import Router, Topology
from repro.mpls.lfib import LabelManager
from repro.net.ip import ip_to_int
from repro.sim.config import AsSpec, MplsPolicy, UniverseSpec
from repro.sim.dataplane import DataPlane
from repro.sim.network import Internet

TRANSIT_SRC, TRANSIT_AS, TRANSIT_DST = 65301, 65000, 65201


def _loopback(index):
    return ip_to_int("10.255.0.0") + index


def _iface(index):
    return ip_to_int("10.0.0.0") + index


class AddressPool:
    """Hands out unique interface addresses for link endpoints."""

    def __init__(self):
        self._next = 0

    def pair(self):
        self._next += 2
        return _iface(self._next - 2), _iface(self._next - 1)


def make_routers(topology, count, vendor="cisco", borders=()):
    """Add ``count`` routers; ids 0..count-1; mark some as borders."""
    for index in range(count):
        topology.add_router(Router(
            router_id=index,
            loopback=_loopback(index),
            vendor=vendor,
            is_border=index in borders,
        ))


def chain_topology(length=4, vendor="cisco"):
    """R0 - R1 - ... - R(n-1); ends are borders."""
    topology = Topology(asn=65000)
    make_routers(topology, length, vendor, borders={0, length - 1})
    pool = AddressPool()
    for index in range(length - 1):
        a, b = pool.pair()
        topology.add_link(index, index + 1, a, b)
    return topology


def diamond_topology(vendor="cisco"):
    """R0 -< R1 / R2 >- R3: two equal-cost router-disjoint paths."""
    topology = Topology(asn=65000)
    make_routers(topology, 4, vendor, borders={0, 3})
    pool = AddressPool()
    for left, right in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        a, b = pool.pair()
        topology.add_link(left, right, a, b)
    return topology


def parallel_link_topology(vendor="cisco"):
    """R0 == R1 - R2: two parallel links, then a single link."""
    topology = Topology(asn=65000)
    make_routers(topology, 3, vendor, borders={0, 2})
    pool = AddressPool()
    for left, right in [(0, 1), (0, 1), (1, 2)]:
        a, b = pool.pair()
        topology.add_link(left, right, a, b)
    return topology


def label_manager_for(topology):
    """A LabelManager covering every router of a topology."""
    return LabelManager({
        router_id: router.vendor
        for router_id, router in topology.routers.items()
    })


def ldp_transit(seed=11, router_count=8, border_count=3, **transit):
    """SRC -> TR -> DST with LDP on TR; ``transit`` are further
    :class:`AsSpec` fields of TR.

    SRC (transit tier) lands on one of TR's core borders and the DST
    stub on its access border, so DST's destinations are reached over
    a TR border-to-border walk — one router when TR has one border.
    """
    internet = Internet(UniverseSpec(
        ases=[
            AsSpec(TRANSIT_AS, "TR", Tier.TIER1,
                   router_count=router_count, border_count=border_count,
                   **transit),
            AsSpec(TRANSIT_SRC, "SRC", Tier.TRANSIT, router_count=3,
                   border_count=1),
            AsSpec(TRANSIT_DST, "DST", Tier.STUB, router_count=3,
                   border_count=1, prefix_count=8),
        ],
        c2p_edges=[(TRANSIT_SRC, TRANSIT_AS), (TRANSIT_DST, TRANSIT_AS)],
        p2p_edges=[],
        monitor_ases=[TRANSIT_SRC],
        seed=seed,
    ))
    internet.network(TRANSIT_AS).apply_policy(
        MplsPolicy(enabled=True, ldp=True))
    return internet


def transit_walks(internet, flows=1):
    """TR's hops of ``DataPlane.forward_path`` towards every DST
    destination, per flow: the ingress border first (the inter-AS
    hop, never labelled), the egress border last."""
    dataplane = DataPlane(internet)
    for dst, owner in internet.destination_addresses():
        if owner != TRANSIT_DST:
            continue
        for flow_id in range(flows):
            yield [hop for hop in dataplane.forward_path(
                TRANSIT_SRC, 1, 99, dst, flow_id)
                if hop.asn == TRANSIT_AS]
