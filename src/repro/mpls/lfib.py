"""Label allocation and the Label Forwarding Information Base.

One :class:`LabelAllocator` exists per router.  It hands out labels
sequentially from the router's vendor-specific dynamic range and wraps
around when the range is exhausted — the behaviour the paper observes in
Fig 17 ("when a label reaches its maximum, it starts again from the
minimum").  Sequential allocation also means that a busier LSR (more LSPs
signalled through it) advances its counter faster, reproducing the paper's
observation that LSR2's sawtooth evolves faster than LSR1's.

The :class:`Lfib` stores, per router, the mapping from an incoming label to
its forwarding actions, plus the ingress FTN (FEC-to-NHLFE) map from FEC to
label bindings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Dict, Hashable, List, Optional, Tuple

from .vendor import VendorProfile, get_profile

# LabelManager generations: process-unique, never reused (unlike id()).
_GENERATIONS = count()

# Special binding value meaning "pop the stack before forwarding to me"
# (implicit null, RFC 3032 label 3): the PHP signal.
IMPLICIT_NULL_BINDING = -3


class LabelAllocatorError(RuntimeError):
    """Raised when a router's label space is exhausted mid-rotation."""


class LabelAllocator:
    """Sequential per-router label allocator with wrap-around.

    Labels currently in use are never handed out twice; freed labels
    become available again after the counter wraps past them.
    """

    def __init__(self, profile: VendorProfile, start_offset: int = 0):
        """``start_offset`` shifts the first handed-out label.

        Real routers have years of allocation history behind them, so the
        counters of two distinct LSRs are effectively desynchronized.  The
        offset models that: it makes cross-router label collisions as
        unlikely as in the wild, which the paper's Parallel-Links
        inference (same label on distinct IPs => alias) depends on.
        """
        self.profile = profile
        self._next = profile.label_min + start_offset % profile.label_space()
        self._in_use: set = set()
        self.allocated_total = 0

    def allocate(self) -> int:
        """Return a fresh label from the dynamic range."""
        space = self.profile.label_space()
        if len(self._in_use) >= space:
            raise LabelAllocatorError(
                f"label space exhausted ({space} labels in use)"
            )
        label = self._next
        for _ in range(space):
            if label > self.profile.label_max:
                label = self.profile.label_min
            if label not in self._in_use:
                break
            label += 1
        self._in_use.add(label)
        self._next = label + 1
        if self._next > self.profile.label_max:
            self._next = self.profile.label_min
        self.allocated_total += 1
        return label

    def release(self, label: int) -> None:
        """Return a label to the pool (tunnel teardown)."""
        self._in_use.discard(label)

    def advance(self, count: int) -> None:
        """Apply ``count`` allocate()/release() pairs in closed form.

        Each pair hands out the next free label and immediately frees
        it again, so the in-use set is invariant and the only state
        that moves is ``_next`` (plus the ``allocated_total`` tally).
        The free labels are visited in cyclic ascending order starting
        at ``_next``, which makes the walk periodic with period
        ``m = label_space - len(_in_use)``: after ``count`` pairs the
        last handed-out label is the k-th free label cyclically above
        ``_next`` where ``k = (count - 1) % m + 1``, and ``_next``
        lands one past it (wrapping past ``label_max``).  That label is
        found by bisection over the sorted in-use set instead of
        walking, so a million-pair churn tick costs O(u log space)
        for u labels in use — the equivalence to the literal loop is
        asserted per vendor profile (including wrap-around) in
        ``tests/test_statestore.py``.
        """
        if count <= 0:
            return
        profile = self.profile
        space = profile.label_space()
        free = space - len(self._in_use)
        if free <= 0:
            raise LabelAllocatorError(
                f"label space exhausted ({space} labels in use)"
            )
        k = (count - 1) % free + 1
        in_use = sorted(self._in_use)
        # Free labels split into the high arc [_next, label_max] and
        # the wrapped low arc [label_min, _next - 1], visited in that
        # order.
        label = _kth_free(in_use, self._next, profile.label_max, k)
        if label is None:
            high_free = ((profile.label_max - self._next + 1)
                         - (len(in_use)
                            - bisect_left(in_use, self._next)))
            label = _kth_free(in_use, profile.label_min,
                              self._next - 1, k - high_free)
        self._next = (profile.label_min if label >= profile.label_max
                      else label + 1)
        self.allocated_total += count

    @property
    def in_use(self) -> int:
        """Number of labels currently allocated."""
        return len(self._in_use)

    def capture(self) -> Tuple[int, int, Tuple[int, ...]]:
        """Picklable snapshot: (next, allocated_total, sorted in-use).

        The in-use set is canonicalised to a sorted tuple so equal
        allocator states always capture to equal bytes (a set's pickle
        leaks its insertion history).
        """
        return (self._next, self.allocated_total,
                tuple(sorted(self._in_use)))

    def restore(self, state: Tuple[int, int, Tuple[int, ...]]) -> None:
        """Install a :meth:`capture` snapshot (profile must match)."""
        self._next, self.allocated_total, in_use = state
        self._in_use = set(in_use)


def _kth_free(in_use: List[int], lo: int, hi: int,
              k: int) -> Optional[int]:
    """The k-th label of ``[lo, hi]`` absent from sorted ``in_use``.

    Returns None when the range holds fewer than ``k`` free labels.
    Binary search on the monotone free-count prefix function, with each
    probe answered by one bisect into the in-use list.
    """
    if lo > hi or k <= 0:
        return None
    left = bisect_left(in_use, lo)

    def free_upto(label: int) -> int:
        return (label - lo + 1) - (bisect_right(in_use, label) - left)

    if free_upto(hi) < k:
        return None
    low, high = lo, hi
    while low < high:
        mid = (low + high) // 2
        if free_upto(mid) >= k:
            high = mid
        else:
            low = mid + 1
    return low


def _router_offset(router_id: int) -> int:
    """Deterministic allocator start offset for a router.

    A splitmix-style mix of the router id; spreads starting labels across
    the vendor range so that distinct routers rarely propose equal labels.
    """
    value = (router_id + 0x9E3779B9) & 0xFFFFFFFF
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return value ^ (value >> 16)


class LfibAction(Enum):
    """What a router does to the top label of a matching packet."""

    SWAP = "swap"
    POP = "pop"          # PHP: remove the stack, forward as plain IP
    DELIVER = "deliver"  # egress: pop and process locally / IP-forward


@dataclass(frozen=True)
class LfibEntry:
    """One forwarding choice for an incoming label.

    Attributes:
        action: swap/pop/deliver.
        out_label: label to swap in (None for POP/DELIVER).
        next_hop: next-hop router id (None for DELIVER).
        link_id: link used to reach the next hop (None for DELIVER).
    """

    action: LfibAction
    out_label: Optional[int] = None
    next_hop: Optional[int] = None
    link_id: Optional[int] = None


class Lfib:
    """Per-router label forwarding table with ECMP-capable entries.

    ``entries[in_label]`` is the list of equal-cost forwarding choices for
    that label; the data plane picks one with the flow hash, mirroring how
    LDP LSPs inherit IGP ECMP.
    """

    def __init__(self, router_id: int):
        self.router_id = router_id
        self.entries: Dict[int, List[LfibEntry]] = {}
        self._label_of_fec: Dict[Hashable, int] = {}

    def bind(self, fec: Hashable, label: int) -> None:
        """Record the local label this router allocated for a FEC."""
        self._label_of_fec[fec] = label
        self.entries.setdefault(label, [])

    def label_for(self, fec: Hashable) -> Optional[int]:
        """The local label bound to a FEC, or None if unbound."""
        return self._label_of_fec.get(fec)

    def unbind(self, fec: Hashable) -> Optional[int]:
        """Forget a FEC binding; returns the label it used, if any."""
        label = self._label_of_fec.pop(fec, None)
        if label is not None:
            self.entries.pop(label, None)
        return label

    def add_entry(self, in_label: int, entry: LfibEntry) -> None:
        """Append one forwarding choice for an incoming label."""
        self.entries.setdefault(in_label, []).append(entry)

    def choices(self, in_label: int) -> List[LfibEntry]:
        """All equal-cost choices for an incoming label (may be empty)."""
        return self.entries.get(in_label, [])

    def capture(self) -> Tuple[Dict[int, Tuple[LfibEntry, ...]],
                               Dict[Hashable, int]]:
        """Picklable snapshot of the entries and the FTN map.

        Entries are frozen dataclasses, so tuples of them share safely;
        dict insertion order (allocation order) is preserved.
        """
        return ({label: tuple(choices)
                 for label, choices in self.entries.items()},
                dict(self._label_of_fec))

    def restore(self, state: Tuple[Dict[int, Tuple[LfibEntry, ...]],
                                   Dict[Hashable, int]]) -> None:
        """Install a :meth:`capture` snapshot."""
        entries, label_of_fec = state
        self.entries = {label: list(choices)
                        for label, choices in entries.items()}
        self._label_of_fec = dict(label_of_fec)

    def __len__(self) -> int:
        return len(self.entries)


class LabelManager:
    """Owns the allocator and LFIB of every router in one AS.

    ``generation`` is unique per manager within a process.  A FEC
    binding, once made, stays for the manager's lifetime (only RSVP-TE
    unbinds, and only its own session FECs), so the label a router
    holds for an established LDP FEC is a function of ``(generation,
    router, FEC)`` — what lets the data plane share LDP hop tuples
    across eras.
    """

    def __init__(self, vendor_of: Dict[int, str], desynchronize: bool = True):
        """``vendor_of`` maps router id -> vendor profile name.

        With ``desynchronize`` (the default) each router's allocator starts
        at a deterministic per-router offset, modelling independent
        allocation histories; disable it only in tests that assert exact
        label values.
        """
        self.allocators: Dict[int, LabelAllocator] = {
            router_id: LabelAllocator(
                get_profile(vendor),
                start_offset=(_router_offset(router_id)
                              if desynchronize else 0),
            )
            for router_id, vendor in vendor_of.items()
        }
        self.lfibs: Dict[int, Lfib] = {
            router_id: Lfib(router_id) for router_id in vendor_of
        }
        self.generation = next(_GENERATIONS)

    def allocator(self, router_id: int) -> LabelAllocator:
        """The label allocator of one router."""
        return self.allocators[router_id]

    def lfib(self, router_id: int) -> Lfib:
        """The LFIB of one router."""
        return self.lfibs[router_id]

    def allocate_for(self, router_id: int, fec: Hashable) -> int:
        """Allocate a label at a router and bind it to a FEC."""
        lfib = self.lfibs[router_id]
        existing = lfib.label_for(fec)
        if existing is not None:
            return existing
        label = self.allocators[router_id].allocate()
        lfib.bind(fec, label)
        return label

    def release_for(self, router_id: int, fec: Hashable) -> None:
        """Unbind a FEC at a router and return its label to the pool."""
        label = self.lfibs[router_id].unbind(fec)
        if label is not None:
            self.allocators[router_id].release(label)

    def capture(self) -> Dict[int, Tuple[tuple, tuple]]:
        """Per-router (allocator, LFIB) snapshots, sorted by router."""
        return {
            router_id: (self.allocators[router_id].capture(),
                        self.lfibs[router_id].capture())
            for router_id in sorted(self.allocators)
        }

    def restore(self, state: Dict[int, Tuple[tuple, tuple]]) -> None:
        """Install :meth:`capture` snapshots onto this manager's
        routers (the router set must match — same topology)."""
        if set(state) != set(self.allocators):
            raise ValueError("label state router set does not match "
                             "this topology")
        # New bindings: anything keyed by the old generation is stale.
        self.generation = next(_GENERATIONS)
        for router_id, (allocator_state, lfib_state) in state.items():
            self.allocators[router_id].restore(allocator_state)
            self.lfibs[router_id].restore(lfib_state)
