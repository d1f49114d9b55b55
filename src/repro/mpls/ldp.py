"""Label Distribution Protocol engine.

LDP (RFC 5036) allocates labels *downstream*: each router picks one local
label per FEC and advertises that same label to all of its neighbors
(router-scoped labels, paper §3.2).  LSPs therefore follow the IGP
shortest-path DAG towards the FEC — including all its ECMP branches — and
any two LSPs crossing the same router carry the *same* label there.  That
invariant is precisely what LPR's Mono-FEC class detects.

When the egress advertises implicit-null (PHP), the penultimate router pops
the stack instead of swapping, so the egress LER never shows a label in
traceroute output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..igp.spf import SpfTable
from ..igp.topology import Link, Topology
from ..net.ip import Prefix
from .fec import PrefixFec
from .lfib import LabelManager, LfibAction, LfibEntry
from .vendor import get_profile


class LdpEngine:
    """Builds LDP state (labels + LFIB entries) for one AS.

    The engine is driven FEC by FEC: :meth:`establish_transit_fecs` sets up
    an LSP-tree towards the loopback of every border router, the standard
    BGP-transit configuration (§2.2.1).
    """

    def __init__(self, topology: Topology, spf: SpfTable,
                 labels: LabelManager):
        self.topology = topology
        self.spf = spf
        self.labels = labels
        self._established: Dict[PrefixFec, int] = {}  # FEC -> egress router

    @property
    def established_fecs(self) -> List[PrefixFec]:
        """FECs established so far, in establishment order."""
        return list(self._established)

    def egress_of(self, fec: PrefixFec) -> Optional[int]:
        """The egress router of an established FEC."""
        return self._established.get(fec)

    def capture_established(self) -> Tuple[Tuple[PrefixFec, int], ...]:
        """Picklable snapshot of the established-FEC map, in
        establishment order (FECs are frozen dataclasses)."""
        return tuple(self._established.items())

    def restore_established(
            self, state: Tuple[Tuple[PrefixFec, int], ...]) -> None:
        """Install a :meth:`capture_established` snapshot.

        The labels and LFIB entries the FECs refer to are restored
        separately through the :class:`LabelManager`; re-establishing a
        restored FEC is then the same no-op it would be on the
        original engine."""
        self._established = dict(state)

    def uses_php(self, egress_router: int) -> bool:
        """Whether the egress signals PHP (vendor default)."""
        vendor = self.topology.routers[egress_router].vendor
        return get_profile(vendor).php_default

    def establish_fec(self, egress_router: int) -> PrefixFec:
        """Build the LSP-tree towards one egress router's loopback.

        Every router with IGP reachability allocates a label for the FEC
        and installs one LFIB choice per ECMP successor.  Idempotent.
        """
        egress = self.topology.routers[egress_router]
        fec = PrefixFec(Prefix(egress.loopback, 32))
        if fec in self._established:
            return fec

        dag = self.spf.to_destination(egress_router)
        php = self.uses_php(egress_router)

        # Pass 1: every reachable router allocates its local label.  Sorted
        # iteration keeps allocation deterministic across runs.
        members = sorted(
            router_id for router_id in self.topology.routers
            if dag.reachable(router_id)
        )
        for router_id in members:
            if router_id == egress_router and php:
                # Implicit-null: the egress asks its neighbors to pop.
                continue
            self.labels.allocate_for(router_id, fec)

        # Pass 2: install forwarding entries along the DAG.
        for router_id in members:
            if router_id == egress_router:
                self._install_egress(router_id, fec, php)
                continue
            in_label = self.labels.lfib(router_id).label_for(fec)
            for next_hop, link in dag.next_hops(router_id):
                entry = self._entry_towards(next_hop, link, fec,
                                            egress_router, php)
                self.labels.lfib(router_id).add_entry(in_label, entry)

        self._established[fec] = egress_router
        return fec

    def _install_egress(self, router_id: int, fec: PrefixFec,
                        php: bool) -> None:
        if php:
            return  # penultimate routers already popped; nothing arrives
        in_label = self.labels.lfib(router_id).label_for(fec)
        self.labels.lfib(router_id).add_entry(
            in_label, LfibEntry(LfibAction.DELIVER)
        )

    def _entry_towards(self, next_hop: int, link: Link, fec: PrefixFec,
                       egress_router: int, php: bool) -> LfibEntry:
        if next_hop == egress_router and php:
            return LfibEntry(LfibAction.POP, next_hop=next_hop,
                             link_id=link.link_id)
        out_label = self.labels.lfib(next_hop).label_for(fec)
        return LfibEntry(LfibAction.SWAP, out_label=out_label,
                         next_hop=next_hop, link_id=link.link_id)

    def establish_transit_fecs(self) -> List[PrefixFec]:
        """Establish the full mesh of LSP-trees to every border loopback."""
        return [
            self.establish_fec(router.router_id)
            for router in sorted(self.topology.border_routers(),
                                 key=lambda r: r.router_id)
        ]
