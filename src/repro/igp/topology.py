"""Router-level intra-AS topology model.

Each AS in the simulated Internet owns one :class:`Topology`: routers with
loopback addresses and point-to-point links carrying IGP costs.  Parallel
links (several links between the same router pair) are first-class citizens
because they are what produces the paper's "Parallel Links" ECMP subclass:
LDP assigns one label per (router, FEC), so two parallel links show the
*same* label on *different* interface addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..net.ip import int_to_ip


class TopologyError(ValueError):
    """Raised on inconsistent topology construction."""


@dataclass
class Router:
    """One router inside an AS.

    Attributes:
        router_id: index unique within the topology.
        loopback: loopback address (int) — the LDP FEC target for transit.
        vendor: vendor profile name ("cisco", "juniper", "legacy").
        is_border: whether this router speaks eBGP (LER candidate).
        responsive: whether the router answers traceroute probes;
            non-responsive routers appear as anonymous '*' hops and make
            LSPs *incomplete* (first LPR filter).
    """

    router_id: int
    loopback: int
    vendor: str = "cisco"
    is_border: bool = False
    responsive: bool = True

    def __hash__(self) -> int:
        return self.router_id

    def __repr__(self) -> str:
        kind = "border" if self.is_border else "core"
        return (
            f"Router({self.router_id}, {int_to_ip(self.loopback)}, "
            f"{self.vendor}, {kind})"
        )


@dataclass(frozen=True)
class Link:
    """A point-to-point link between two routers.

    ``addr_a``/``addr_b`` are the interface addresses on each side.  A probe
    entering router B over this link is answered from ``addr_b`` (routers
    reply with the incoming interface address, the assumption LPR's alias
    heuristic in §5 also makes).
    """

    link_id: int
    router_a: int
    router_b: int
    addr_a: int
    addr_b: int
    cost: int = 1

    def other(self, router_id: int) -> int:
        """The router on the other side of the link."""
        if router_id == self.router_a:
            return self.router_b
        if router_id == self.router_b:
            return self.router_a
        raise TopologyError(f"router {router_id} not on link {self.link_id}")

    def address_of(self, router_id: int) -> int:
        """The interface address owned by ``router_id`` on this link."""
        if router_id == self.router_a:
            return self.addr_a
        if router_id == self.router_b:
            return self.addr_b
        raise TopologyError(f"router {router_id} not on link {self.link_id}")


class Topology:
    """Mutable router-level topology of one AS."""

    def __init__(self, asn: int):
        self.asn = asn
        self.routers: Dict[int, Router] = {}
        self.links: Dict[int, Link] = {}
        self._adjacency: Dict[int, List[int]] = {}
        self._next_link_id = 0

    def add_router(self, router: Router) -> Router:
        """Register a router; router ids must be unique."""
        if router.router_id in self.routers:
            raise TopologyError(f"duplicate router id {router.router_id}")
        self.routers[router.router_id] = router
        self._adjacency[router.router_id] = []
        return router

    def add_link(self, router_a: int, router_b: int, addr_a: int,
                 addr_b: int, cost: int = 1) -> Link:
        """Connect two registered routers; returns the new link.

        Multiple calls with the same router pair create parallel links.
        """
        if router_a not in self.routers or router_b not in self.routers:
            raise TopologyError(
                f"link endpoints must be registered: {router_a}, {router_b}"
            )
        if router_a == router_b:
            raise TopologyError(f"self-loop on router {router_a}")
        if cost <= 0:
            raise TopologyError(f"IGP cost must be positive, got {cost}")
        link = Link(self._next_link_id, router_a, router_b, addr_a, addr_b,
                    cost)
        self._next_link_id += 1
        self.links[link.link_id] = link
        self._adjacency[router_a].append(link.link_id)
        self._adjacency[router_b].append(link.link_id)
        return link

    def neighbors(self, router_id: int) -> Iterator[Tuple[int, Link]]:
        """Yield (neighbor router id, link) pairs, one per link."""
        for link_id in self._adjacency[router_id]:
            link = self.links[link_id]
            yield link.other(router_id), link

    def links_between(self, router_a: int, router_b: int) -> List[Link]:
        """All (parallel) links between two routers."""
        return [
            self.links[link_id]
            for link_id in self._adjacency.get(router_a, [])
            if self.links[link_id].other(router_a) == router_b
        ]

    def border_routers(self) -> List[Router]:
        """Routers flagged as AS borders (LER candidates)."""
        return [r for r in self.routers.values() if r.is_border]

    def interface_addresses(self) -> Dict[int, int]:
        """Map interface address -> owning router id (loopbacks included)."""
        owners: Dict[int, int] = {}
        for router in self.routers.values():
            owners[router.loopback] = router.router_id
        for link in self.links.values():
            owners[link.addr_a] = link.router_a
            owners[link.addr_b] = link.router_b
        return owners

    def validate(self) -> None:
        """Check structural invariants; raises TopologyError on violation."""
        seen_addresses: Dict[int, Tuple[str, int]] = {}

        def claim(address: int, kind: str, owner: int) -> None:
            previous = seen_addresses.get(address)
            if previous is not None and previous != (kind, owner):
                raise TopologyError(
                    f"address {int_to_ip(address)} assigned twice: "
                    f"{previous} and {(kind, owner)}"
                )
            seen_addresses[address] = (kind, owner)

        for router in self.routers.values():
            claim(router.loopback, "loopback", router.router_id)
        for link in self.links.values():
            claim(link.addr_a, "iface", link.router_a)
            claim(link.addr_b, "iface", link.router_b)

    def __repr__(self) -> str:
        return (
            f"Topology(asn={self.asn}, routers={len(self.routers)}, "
            f"links={len(self.links)})"
        )
