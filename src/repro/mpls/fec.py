"""Forwarding Equivalence Classes.

A FEC is "a set of packets a given hop forwards to the same next hop, via
the same interface, with the same treatment" (paper §1).  Two concrete FEC
kinds matter here:

* :class:`PrefixFec` — LDP binds labels per destination prefix (for transit,
  the loopback /32 of the exit border router, i.e. the BGP next-hop).  All
  traffic leaving the AS through that border shares one FEC, which is why
  LDP shows a *single* label per (router, egress) and LPR reads equal labels
  at common IPs as Mono-FEC.
* :class:`TunnelFec` — RSVP-TE allocates labels per LSP *session*.  Distinct
  tunnels between the same LER pair get distinct labels at every hop, the
  Multi-FEC signature.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.ip import Prefix


@dataclass(frozen=True)
class PrefixFec:
    """An LDP FEC: a destination prefix (usually an egress loopback /32)."""

    prefix: Prefix

    def __str__(self) -> str:
        return f"ldp:{self.prefix}"


@dataclass(frozen=True)
class TunnelFec:
    """An RSVP-TE FEC: one traffic-engineering tunnel session.

    ``instance`` distinguishes successive signalling generations of the
    same tunnel: a head-end re-optimization bumps it, and every hop then
    allocates a *fresh* label (the mechanism behind Fig 17's sawtooth).
    """

    ingress: int
    egress: int
    tunnel_id: int
    instance: int = 0

    def reoptimized(self) -> "TunnelFec":
        """The FEC of the next signalling generation of this tunnel."""
        return TunnelFec(self.ingress, self.egress, self.tunnel_id,
                         self.instance + 1)

    def __str__(self) -> str:
        return (
            f"te:{self.ingress}->{self.egress}#{self.tunnel_id}"
            f".{self.instance}"
        )
