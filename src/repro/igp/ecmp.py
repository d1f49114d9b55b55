"""Deterministic per-flow ECMP next-hop selection.

Real routers hash selected header fields (addresses, protocol, ports) and
use the digest to pick one of the equal-cost successors.  Paris traceroute
keeps those fields constant across the TTL sweep so that one trace follows
one consistent path; different destinations hash to different branches.

Python's builtin ``hash`` is salted per process, so we implement a small
stable 64-bit mixer (splitmix64 over a running state) that gives the same
branch decisions for the same flow across runs and machines.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, List, Sequence, Tuple

from .spf import NextHop

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_SEED = 0x243F6A8885A308D3  # pi, nothing up the sleeve


def fold(state: int, *fields: int) -> int:
    """Mix more fields into a running hash state (one splitmix step
    per field).

    :func:`flow_hash` is this left fold started from a fixed seed, so a
    hash over a shared field prefix can be computed once and extended
    per suffix: ``flow_hash(*a, *b) == fold(flow_hash(*a), *b)``.

    >>> fold(flow_hash(1, 2), 3) == flow_hash(1, 2, 3)
    True
    """
    for field in fields:
        state = _splitmix64(state ^ (field & _MASK64))
    return state


_LANES: Dict[int, tuple] = {}


def _lane_constants(n: int) -> tuple:
    """(replicator, TTL ramp, golden add, lane mask, reader) for ``n``
    lanes 128 bits apart, built once per lane count."""
    constants = _LANES.get(n)
    if constants is None:
        replicator = sum(1 << (128 * lane) for lane in range(n))
        ramp = sum((lane + 1) << (128 * lane) for lane in range(n))
        constants = _LANES[n] = (
            replicator, ramp, 0x9E3779B97F4A7C15 * replicator,
            _MASK64 * replicator, Struct("<" + "Q8x" * n).unpack)
    return constants


def fold_ramp(state: int, n: int) -> Tuple[int, ...]:
    """``fold(state, ttl)`` for every ttl in 1..n, in one big-int pass.

    Each ``state ^ ttl`` sits in its own lane, 128 bits apart, so the
    64x64-bit products never carry into the next lane.  Every
    xor-shift is masked back to 64 bits per lane before the multiply
    (the shift drags the next lane's low bits into the gap); the final
    xor-shift needs no mask because the reader skips each lane's upper
    eight bytes.  ``state`` must be a 64-bit hash state, ``n`` at most
    255 (an IP TTL).

    >>> fold_ramp(flow_hash(7), 3) == tuple(
    ...     fold(flow_hash(7), ttl) for ttl in (1, 2, 3))
    True
    """
    replicator, ramp, golden, mask, read = _lane_constants(n)
    z = (((state * replicator) ^ ramp) + golden) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z ^= z >> 31
    return read(z.to_bytes(16 * n, "little"))


def flow_hash(*fields: int) -> int:
    """Stable 64-bit hash of integer header fields.

    >>> flow_hash(1, 2, 3) == flow_hash(1, 2, 3)
    True
    >>> flow_hash(1, 2, 3) != flow_hash(1, 2, 4)
    True
    """
    return fold(_SEED, *fields)


def destination_draw(selector: int, ingress: int, egress: int) -> int:
    """The draw by which a head-end spreads destinations over one
    (ingress, egress) pair's parallel TE tunnels or SR policies.

    Steering is destination-based: ``selector`` is the destination
    /24's network address, so every flow to one /24 rides the option
    ``options[draw % len(options)]`` whatever its transport fields.
    """
    return flow_hash(selector, ingress, egress)


class FlowKey:
    """The header fields a hash-based load balancer inspects.

    ICMP-Paris probes (what Archipelago sends) keep checksum and identifier
    constant per destination, so the per-flow key reduces to addresses plus
    protocol.  Transport probes would add ports.
    """

    __slots__ = ("src", "dst", "proto", "sport", "dport")

    def __init__(self, src: int, dst: int, proto: int = 1, sport: int = 0,
                 dport: int = 0):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.sport = sport
        self.dport = dport

    def digest(self, per_router_salt: int = 0) -> int:
        """Hash the key; the salt models per-router hash seed diversity."""
        return flow_hash(
            self.src, self.dst, self.proto, self.sport, self.dport,
            per_router_salt,
        )

    def __repr__(self) -> str:
        return (
            f"FlowKey(src={self.src}, dst={self.dst}, proto={self.proto})"
        )


def select_next_hop(choices: Sequence[NextHop], key: FlowKey,
                    router_salt: int = 0) -> NextHop:
    """Pick one successor for a flow among equal-cost choices.

    The choice is a pure function of (flow key, router salt, choice count):
    the same flow always takes the same branch at the same router, which is
    exactly the invariant Paris traceroute relies on.
    """
    if not choices:
        raise ValueError("no next hops to choose from")
    if len(choices) == 1:
        return choices[0]
    index = key.digest(router_salt) % len(choices)
    return choices[index]


def branch_distribution(choices_count: int, keys: Sequence[FlowKey],
                        router_salt: int = 0) -> List[int]:
    """Histogram of branch picks for a set of flows (testing/diagnostics)."""
    counts = [0] * choices_count
    for key in keys:
        counts[key.digest(router_salt) % choices_count] += 1
    return counts
