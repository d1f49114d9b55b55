"""RSVP-TE engine: traffic-engineering tunnels with per-session labels.

RSVP-TE (RFC 3209) signals one LSP per tunnel session along an explicit
route, and *every* hop allocates a session-specific label.  Two tunnels
between the same LER pair therefore show different labels even where their
IP paths coincide — the Multi-FEC signature LPR keys on.

Head-ends may periodically *re-optimize* a tunnel (a Juniper default the
paper observes in §4.5): the LSP is re-signalled make-before-break, every
hop hands out a fresh label, and the old ones are released.  Because
allocators are sequential with wrap-around, a probed LSR shows the label
sawtooth of Fig 17, climbing faster on routers that carry more sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..igp.spf import NextHop, SpfTable
from ..igp.topology import Topology
from .fec import TunnelFec
from .lfib import LabelManager, LfibAction, LfibEntry


class RsvpError(RuntimeError):
    """Raised on invalid signalling requests."""


@dataclass
class TeSession:
    """One signalled traffic-engineering LSP.

    ``route`` is the hop sequence as (router id, link) steps taken from the
    ingress; ``labels`` maps each router on the path (except the ingress,
    and except a PHP egress) to the label it allocated for this session
    instance.
    """

    fec: TunnelFec
    route: List[NextHop]
    labels: Dict[int, int] = field(default_factory=dict)

    @property
    def ingress(self) -> int:
        return self.fec.ingress

    @property
    def egress(self) -> int:
        return self.fec.egress

    @property
    def routers(self) -> List[int]:
        """Routers traversed, ingress first."""
        return [self.fec.ingress] + [router for router, _ in self.route]

    def __repr__(self) -> str:
        return f"TeSession({self.fec}, hops={len(self.route)})"


class RsvpTeEngine:
    """Signals, re-optimizes and tears down TE tunnels in one AS."""

    def __init__(self, topology: Topology, spf: SpfTable,
                 labels: LabelManager, php: bool = True):
        self.topology = topology
        self.spf = spf
        self.labels = labels
        self.php = php
        self._sessions: Dict[Tuple[int, int, int], TeSession] = {}

    @property
    def sessions(self) -> List[TeSession]:
        """Active sessions in signalling order."""
        return list(self._sessions.values())

    def session(self, ingress: int, egress: int,
                tunnel_id: int) -> Optional[TeSession]:
        """Look up an active session by its tunnel identity."""
        return self._sessions.get((ingress, egress, tunnel_id))

    def compute_route(self, ingress: int, egress: int,
                      tunnel_id: int) -> List[NextHop]:
        """Constraint-based route selection (CSPF stand-in).

        Real CSPF prunes links violating bandwidth/affinity constraints and
        then runs SPF.  With uncongested links every tunnel falls back to
        an IGP shortest path — which is exactly the paper's empirical
        finding (TE tunnels usually share one IP route).  To still allow
        deliberate spreading, tunnels round-robin over the equal-cost path
        set by tunnel id.
        """
        dag = self.spf.to_destination(egress)
        if not dag.reachable(ingress):
            raise RsvpError(f"no route from {ingress} to {egress}")
        paths = dag.all_paths(ingress, limit=64)
        if not paths:
            raise RsvpError(f"no path enumerated from {ingress} to {egress}")
        return paths[tunnel_id % len(paths)]

    def signal(self, ingress: int, egress: int,
               tunnel_id: int) -> TeSession:
        """Signal (or re-signal) a tunnel; returns the active session.

        If the tunnel already exists it is re-optimized make-before-break:
        the new instance allocates fresh labels before the old instance's
        labels are released.
        """
        key = (ingress, egress, tunnel_id)
        previous = self._sessions.get(key)
        fec = (previous.fec.reoptimized() if previous is not None
               else TunnelFec(ingress, egress, tunnel_id))
        session = TeSession(
            fec=fec, route=self.compute_route(ingress, egress, tunnel_id))
        self._allocate_and_install(session)
        if previous is not None:
            self._release(previous)
        self._sessions[key] = session
        return session

    def reoptimize_all(self) -> List[TeSession]:
        """Re-signal every active tunnel (a head-end timer tick)."""
        return [
            self.signal(*key) for key in sorted(self._sessions)
        ]

    def teardown(self, ingress: int, egress: int, tunnel_id: int) -> None:
        """Remove a tunnel and release its labels."""
        session = self._sessions.pop((ingress, egress, tunnel_id), None)
        if session is None:
            raise RsvpError(f"tunnel {ingress}->{egress}#{tunnel_id} "
                            f"not signalled")
        self._release(session)

    def capture_sessions(self) -> tuple:
        """Picklable snapshot of every session, in signalling order.

        Routes are flattened to ``(router id, link id)`` steps — Link
        objects belong to one Topology instance and must be re-interned
        on restore so a restored session's route is identical (not just
        equal) to the restoring process's own topology links.
        """
        return tuple(
            (key, session.fec,
             tuple((router, link.link_id)
                   for router, link in session.route),
             tuple(session.labels.items()))
            for key, session in self._sessions.items()
        )

    def restore_sessions(self, state: tuple) -> None:
        """Install a :meth:`capture_sessions` snapshot.

        Label allocations and LFIB entries are restored separately via
        the :class:`~repro.mpls.lfib.LabelManager`; this rebuilds the
        session objects against this engine's topology.
        """
        links = self.topology.links
        self._sessions = {
            key: TeSession(
                fec=fec,
                route=[(router, links[link_id])
                       for router, link_id in route],
                labels=dict(labels),
            )
            for key, fec, route, labels in state
        }

    # -- internals ---------------------------------------------------------

    def _allocate_and_install(self, session: TeSession) -> None:
        """Downstream label allocation along the explicit route."""
        route = session.route
        if not route:
            raise RsvpError("empty route")
        # Allocate labels hop by hop.  With PHP the egress allocates none
        # (it advertises implicit null to the penultimate hop).
        for router, _ in route:
            if router == session.egress and self.php:
                continue
            label = self.labels.allocator(router).allocate()
            session.labels[router] = label
            self.labels.lfib(router).bind(session.fec, label)

        # Install LFIB entries: at each transit router, swap to the next
        # hop's session label (or pop, for PHP before the egress).
        steps = [(session.ingress, None)] + list(route)
        for index in range(1, len(steps) - 1):
            router = steps[index][0]
            next_router, link = steps[index + 1]
            in_label = session.labels[router]
            if next_router == session.egress and self.php:
                entry = LfibEntry(LfibAction.POP, next_hop=next_router,
                                  link_id=link.link_id)
            else:
                entry = LfibEntry(
                    LfibAction.SWAP,
                    out_label=session.labels[next_router],
                    next_hop=next_router, link_id=link.link_id,
                )
            self.labels.lfib(router).add_entry(in_label, entry)
        if not self.php:
            egress_label = session.labels[session.egress]
            self.labels.lfib(session.egress).add_entry(
                egress_label, LfibEntry(LfibAction.DELIVER)
            )

    def _release(self, session: TeSession) -> None:
        for router, label in session.labels.items():
            self.labels.lfib(router).entries.pop(label, None)
            self.labels.lfib(router).unbind(session.fec)
            self.labels.allocator(router).release(label)
