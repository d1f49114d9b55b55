"""Deterministic cycle sharding for parallel study execution.

Cycles are dealt into *contiguous* blocks: a worker reconstructs its
starting state by replaying cycles ``1..first-1`` (cheap control-plane
fast-forward), so contiguity keeps total replay work at
``sum(first_k - 1)`` instead of one replay per cycle.  The split is a
pure function of ``(first, last, shards)`` — no randomness, no
load-balancer state — which keeps shard assignment reproducible and the
merged output independent of worker scheduling.

A resumed study plans only the cycles no checkpoint covers:
:func:`plan_shards` takes the *missing* cycles, splits them into
maximal contiguous runs and deals the workers over those runs, so a
crash at cycle 13 of 24 resumes as ``13-18`` and ``19-24`` whatever
layout wrote cycles 1-12.  The smallest unit is one whole cycle:
workers beyond the missing-cycle count stay idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple


@dataclass(frozen=True)
class Shard:
    """One worker's contiguous block of cycles (inclusive bounds)."""

    shard_id: int
    first: int
    last: int

    @property
    def cycles(self) -> range:
        """The cycle numbers of this shard, ascending."""
        return range(self.first, self.last + 1)

    def __len__(self) -> int:
        return self.last - self.first + 1


def shard_cycles(first: int, last: int, shards: int) -> List[Shard]:
    """Split ``[first, last]`` into at most ``shards`` contiguous blocks.

    Blocks differ in size by at most one cycle (the earlier blocks take
    the remainder).  Asking for more shards than cycles yields one
    single-cycle shard per cycle; an empty range yields no shards.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    total = last - first + 1
    if total <= 0:
        return []
    count = min(shards, total)
    base, extra = divmod(total, count)
    out: List[Shard] = []
    start = first
    for shard_id in range(count):
        size = base + (1 if shard_id < extra else 0)
        out.append(Shard(shard_id=shard_id, first=start,
                         last=start + size - 1))
        start += size
    return out


def contiguous_runs(cycles: Iterable[int]) -> List[Tuple[int, int]]:
    """The maximal runs ``(first, last)`` of consecutive cycles, in
    ascending order (duplicates ignored)."""
    runs: List[Tuple[int, int]] = []
    for cycle in sorted(set(cycles)):
        if runs and runs[-1][1] == cycle - 1:
            runs[-1] = (runs[-1][0], cycle)
        else:
            runs.append((cycle, cycle))
    return runs


def _deal(runs: List[Tuple[int, int]], workers: int) -> List[int]:
    """Workers per run: one each, then every spare worker goes to the
    run whose largest shard is currently biggest (earliest run on
    ties), which minimises the largest shard of the plan."""
    lengths = [last - first + 1 for first, last in runs]
    shares = [1] * len(runs)
    for _ in range(workers - len(runs)):
        best = max(range(len(runs)),
                   key=lambda i: ((lengths[i] + shares[i] - 1)
                                  // shares[i], -i))
        shares[best] += 1
    return shares


def plan_shards(cycles: Iterable[int], workers: int) -> List[Shard]:
    """One shard per worker over the given (missing) cycles.

    A pure function of ``(set of cycles, workers)``: the cycles split
    into maximal contiguous runs, the workers — at most one per cycle —
    are dealt over the runs (:func:`_deal`) and each run splits like
    :func:`shard_cycles`, so a full ``1..N`` range plans exactly
    ``shard_cycles(1, N, workers)``.  More runs than workers yields
    one shard per run (the pool queues the surplus).  Shard ids run in
    cycle order.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    missing = sorted(set(cycles))
    runs = contiguous_runs(missing)
    out: List[Shard] = []
    for (first, last), share in zip(
            runs, _deal(runs, min(workers, len(missing)))):
        for shard in shard_cycles(first, last, share):
            out.append(Shard(shard_id=len(out), first=shard.first,
                             last=shard.last))
    return out
