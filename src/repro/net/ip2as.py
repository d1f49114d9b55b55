"""IP-to-AS mapping in the style of Routeviews prefix-to-origin tables.

The paper maps every traceroute hop to an AS using a Routeviews table
collected the same day as the measurement cycle.  This module provides the
same interface: a table of ``(prefix, origin AS)`` entries answering
longest-prefix-match queries, plus a tiny text codec compatible with the
classic ``pfx2as`` three-column format (dotted prefix, length, ASN).

Longest-prefix match is answered from one hash table per prefix length,
probed longest first: a pfx2as table holds few distinct lengths (the
simulated ones two, /16 and /24), so a query costs at most one dict
probe per length (DESIGN §8).

Multi-origin prefixes (MOAS) are preserved: a lookup may return a tuple of
ASNs, and :meth:`Ip2AsMapper.lookup_single` applies the common convention of
keeping the first (lowest) origin.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, TextIO, \
    Tuple, Union

from ..obs import get_registry
from .ip import Prefix, int_to_ip, ip_to_int

Origin = Union[int, Tuple[int, ...]]

UNKNOWN_AS = -1

_LOOKUP_HITS = get_registry().counter(
    "ip2as_lookup_cache_hits_total",
    "Batched IP2AS lookups answered by the per-call prefix memo",
    execution=True)
_LOOKUP_MISSES = get_registry().counter(
    "ip2as_lookup_cache_misses_total",
    "Batched IP2AS lookups answered by a longest-prefix match",
    execution=True)

_MEMO_PREFIX_LENGTH = 24
"""Granularity of the :meth:`Ip2AsMapper.lookup_many` memo: one
longest-prefix match answers a whole /24, the granularity of pfx2as
destination blocks.  Exact only while no table prefix is longer than
/24, so the memo degrades to per-address keys on finer tables."""


class Ip2AsMapper:
    """Longest-prefix-match mapping from IPv4 address to origin AS."""

    def __init__(self):
        # {length: {network >> (32 - length): origin}}
        self._tables: Dict[int, Dict[int, Origin]] = {}
        # ``(32 - length, table)`` longest first: the lookup probe order.
        self._probes: Tuple[Tuple[int, Dict[int, Origin]], ...] = ()
        self._max_length = 0

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def add(self, prefix: Prefix, origin: Origin) -> None:
        """Register an origin (ASN or tuple of ASNs) for a prefix.

        Adding a second distinct origin for the same prefix turns the entry
        into a MOAS tuple.
        """
        length = prefix.length
        if length > self._max_length:
            self._max_length = length
        table = self._tables.get(length)
        if table is None:
            table = self._tables[length] = {}
            self._probes = tuple(
                (32 - key, self._tables[key])
                for key in sorted(self._tables, reverse=True))
        key = prefix.network >> (32 - length)
        existing = table.get(key)
        table[key] = (origin if existing is None
                      else _merge_origins(existing, origin))

    def lookup(self, address: int) -> Optional[Origin]:
        """Return the origin for an address, or None if unrouted."""
        for shift, table in self._probes:
            origin = table.get(address >> shift)
            if origin is not None:
                return origin
        return None

    def lookup_single(self, address: int) -> int:
        """Return a single ASN for an address.

        MOAS entries resolve to their lowest ASN; unrouted addresses map to
        :data:`UNKNOWN_AS` so that callers can use the result as a dict key
        without None checks.
        """
        origin = self.lookup(address)
        if origin is None:
            return UNKNOWN_AS
        if isinstance(origin, tuple):
            return min(origin)
        return origin

    def lookup_many(self, addresses: Iterable[int]) -> List[int]:
        """Batched :meth:`lookup_single`, memoised within the call.

        Traceroute hops and destinations repeat heavily inside one
        cycle and cluster in /24s, so one longest-prefix match usually
        answers a whole block of queries.  The memo is keyed per /24
        while the table holds no longer prefix
        (:data:`_MEMO_PREFIX_LENGTH` — always true for pfx2as-style
        tables); a finer table drops the memo to exact-address keys
        instead of risking wrong answers.
        Hit/miss totals surface as
        ``ip2as_lookup_cache_{hits,misses}_total``.
        """
        shift = (32 - _MEMO_PREFIX_LENGTH
                 if self._max_length <= _MEMO_PREFIX_LENGTH else 0)
        memo: dict = {}
        memo_get = memo.get
        lookup = self.lookup_single
        out: List[int] = []
        append = out.append
        hits = misses = 0
        for address in addresses:
            key = address >> shift
            asn = memo_get(key)
            if asn is None:
                asn = lookup(address)
                memo[key] = asn
                misses += 1
            else:
                hits += 1
            append(asn)
        if hits:
            _LOOKUP_HITS.inc(hits)
        if misses:
            _LOOKUP_MISSES.inc(misses)
        return out

    def lookup_str(self, address: str) -> Optional[Origin]:
        """Lookup on a dotted-quad string (convenience)."""
        return self.lookup(ip_to_int(address))

    def items(self) -> Iterator[Tuple[Prefix, Origin]]:
        """Iterate over all (prefix, origin) entries, ordered by prefix."""
        return iter(sorted(
            (Prefix(key << (32 - length), length), origin)
            for length, table in self._tables.items()
            for key, origin in table.items()))

    # -- pfx2as text codec ------------------------------------------------

    def dump(self, stream: TextIO) -> None:
        """Write the table in pfx2as format (prefix, length, origin)."""
        for prefix, origin in self.items():
            origins = (
                "_".join(str(a) for a in origin)
                if isinstance(origin, tuple)
                else str(origin)
            )
            stream.write(
                f"{int_to_ip(prefix.network)}\t{prefix.length}\t{origins}\n"
            )

    @classmethod
    def load(cls, stream: TextIO) -> "Ip2AsMapper":
        """Parse a pfx2as-format table.

        MOAS origins are encoded with underscores (``65001_65002``), the
        convention used by CAIDA's prefix-to-AS files.
        """
        mapper = cls()
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(
                    f"line {line_number}: expected 3 fields, got {len(fields)}"
                )
            network, length, origins = fields
            prefix = Prefix(ip_to_int(network), int(length))
            parsed = tuple(int(asn) for asn in origins.split("_"))
            mapper.add(prefix, parsed[0] if len(parsed) == 1 else parsed)
        return mapper

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[Prefix, Origin]]
    ) -> "Ip2AsMapper":
        """Build a mapper from an iterable of (prefix, origin) pairs."""
        mapper = cls()
        for prefix, origin in pairs:
            mapper.add(prefix, origin)
        return mapper

    def __repr__(self) -> str:
        return f"Ip2AsMapper(entries={len(self)})"


def _merge_origins(existing: Origin, new: Origin) -> Origin:
    existing_set = set(
        existing if isinstance(existing, tuple) else (existing,)
    )
    new_set = set(new if isinstance(new, tuple) else (new,))
    merged = tuple(sorted(existing_set | new_set))
    return merged[0] if len(merged) == 1 else merged
