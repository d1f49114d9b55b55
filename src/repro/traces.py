"""Canonical traceroute data model.

Every layer of the repository speaks this vocabulary: the simulator's
traceroute engine *produces* :class:`Trace` objects, the warts-like codec
*serializes* them, and LPR *consumes* them.  A trace is a TTL-ordered list
of :class:`TraceHop` replies; a hop may be anonymous (no reply) and may
quote an MPLS label stack per RFC 4950.

Traces are bulk data — a cycle holds hundreds of thousands of hops —
so the module also owns the two tools that keep them cheap for
CPython (DESIGN §8): :func:`make_hop`, the C-level hop constructor the
decoder and the simulator build with, and :func:`gc_paused`, the scope
bulk trace work runs in with the cyclic collector paused.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .mpls.lse import LabelStackEntry
from .net.ip import int_to_ip


class StopReason(Enum):
    """Why the traceroute stopped probing."""

    COMPLETED = "completed"      # destination (or its /24) replied
    GAP_LIMIT = "gap-limit"      # too many consecutive anonymous hops
    LOOP = "loop"                # forwarding loop detected
    UNREACHABLE = "unreachable"  # ICMP destination unreachable
    TTL_EXHAUSTED = "ttl-exhausted"


class TraceHop(NamedTuple):
    """One reply (or silence) at a given probe TTL.

    A named tuple: hops are built by the hundred thousand (decoder,
    simulator) and live as long as their trace, so each is one
    immutable object with no instance ``__dict__`` (DESIGN §8).
    Equality, hashing and ``repr`` are those of the field tuple;
    :func:`make_hop` is the fast positional constructor.

    Attributes:
        probe_ttl: the IP TTL of the probe that triggered this reply.
        address: replying interface address, or None for an anonymous hop.
        rtt_ms: round-trip time in milliseconds (0.0 when anonymous).
        quoted_stack: the MPLS LSEs quoted via RFC 4950, top first
            (empty when the hop is not label-switched, does not implement
            RFC 4950, or is anonymous).
        quoted_ttl: the IP-TTL of the probe as quoted in the ICMP reply
            (the *qTTL*).  1 on ordinary hops; inside a ttl-propagating
            tunnel the IP-TTL is no longer decremented (only the LSE-TTL
            is), so the j-th LSR quotes j+1 — the signature used to
            reveal *implicit* tunnels when RFC 4950 is absent.
    """

    probe_ttl: int
    address: Optional[int]
    rtt_ms: float = 0.0
    quoted_stack: Tuple[LabelStackEntry, ...] = ()
    quoted_ttl: int = 1

    @property
    def is_anonymous(self) -> bool:
        """True when the router did not reply (a '*' hop)."""
        return self.address is None

    @property
    def has_labels(self) -> bool:
        """True when an RFC 4950 label stack was quoted."""
        return bool(self.quoted_stack)

    @property
    def labels(self) -> Tuple[int, ...]:
        """Bare label values, top first."""
        return tuple(entry.label for entry in self.quoted_stack)

    def __str__(self) -> str:
        if self.is_anonymous:
            return f"{self.probe_ttl:>2}  *"
        text = f"{self.probe_ttl:>2}  {int_to_ip(self.address)}" \
               f"  {self.rtt_ms:.3f} ms"
        if self.quoted_stack:
            stack = ", ".join(
                f"Label={e.label} TC={e.tc} S={int(e.bottom)} TTL={e.ttl}"
                for e in self.quoted_stack
            )
            text += f"  [MPLS: {stack}]"
        return text


make_hop = partial(tuple.__new__, TraceHop)
"""``make_hop((probe_ttl, address, rtt_ms, quoted_stack, quoted_ttl))``
builds a :class:`TraceHop` from all five fields in one tuple, in C:
no Python frame and no defaults.  The one constructor of the bulk
producers (the warts decoder, the simulator's traceroute engine)."""


@dataclass
class Trace:
    """One traceroute measurement."""

    monitor: str                 # vantage-point name
    src: int                     # probe source address
    dst: int                     # probed destination address
    timestamp: float             # seconds since the simulation epoch
    stop_reason: StopReason
    hops: List[TraceHop] = field(default_factory=list)

    @property
    def hop_count(self) -> int:
        """Number of probed TTLs recorded."""
        return len(self.hops)

    @property
    def responsive_hops(self) -> List[TraceHop]:
        """Hops that replied."""
        return [hop for hop in self.hops if not hop.is_anonymous]

    @property
    def has_mpls(self) -> bool:
        """True when at least one hop quoted a label stack."""
        return any(hop.has_labels for hop in self.hops)

    def addresses(self) -> List[int]:
        """Responding addresses in TTL order."""
        return [hop.address for hop in self.hops
                if hop.address is not None]

    def __str__(self) -> str:
        header = (
            f"traceroute from {self.monitor} ({int_to_ip(self.src)}) "
            f"to {int_to_ip(self.dst)} [{self.stop_reason.value}]"
        )
        return "\n".join([header] + [str(hop) for hop in self.hops])


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause CPython's cyclic collector for a scope of bulk trace work.

    Traces, hop lists and hops hold no reference cycles, yet building
    them by the hundred thousand triggers generational collections
    that traverse every live trace and free nothing (DESIGN §8).  The
    collector is re-enabled on exit, also when the scope raises, and
    a scope entered with the collector already off (nested, or a
    caller that disabled it) leaves it off.

    On exit the scope hands what it allocated to the oldest
    generation (``gc.freeze()`` then ``gc.unfreeze()``: two O(1) list
    splices that also zero the young counts), so the first young
    collection after it does not walk and promote the data the scope
    returns.  Nothing stays frozen, so full collections still see
    every object.  A caller with its own frozen set
    (``gc.get_freeze_count() > 0``) keeps it: the scope then only
    re-enables the collector, since ``unfreeze`` would release that
    set too.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()
