"""Per-cycle checkpointing for restartable studies.

A multi-hour campaign must not lose everything to one crash near the
end.  Each finished cycle's :class:`~repro.core.pipeline.CycleResult`
and its metrics delta are persisted as soon as the parent collects
them; a restarted study looks every cycle up once, restores the hits
and dispatches only the cycles still missing.  Because every cycle is a
pure function of ``(StudySpec, cycle)`` (DESIGN §6/§8), a resumed run is
byte-identical to an uninterrupted one.

Layout: ``<checkpoint-dir>/<spec-hash>/cycle-<NNNN>.ckpt`` holds one
cycle, whoever computed it — the serial loop, a worker's cycle-range
shard (split into one entry per cycle) or the parent reassembling pair
blocks.  The key names no worker layout, so any layout resumes from any
other, and the bytes do not depend on the layout either: a worker
encodes its cycles' entries itself (:meth:`CheckpointStore.encode`)
and the parent writes them unchanged.  Intra-cycle pair blocks (DESIGN §8) add a block component —
``cycle-<NNNN>-b<index>-<count>.ckpt`` — so their key is ``(spec,
cycle, pair range)``.  The directory is **content-addressed by the spec
hash**, and the hash is verified again inside each file, so a stale
checkpoint from a different spec (other seed, scale, filter knobs, or
format version) is *rejected* — counted in
``par_checkpoint_rejected_total{reason}`` — never silently reused.
Writes go through a temp file + ``os.replace`` so a crash mid-write
leaves no half-checkpoint behind; unreadable files degrade to a re-run
of that cycle, not an abort.

Persisted metrics deltas are **stripped of layout-dependent cache
counters** (``route_cache_*``, ``hop_cache_*``,
``quoted_stack_cache_*``): serial and sharded runs split the same probe
stream over differently warmed caches, so those hit/miss splits
are per-process observability, not campaign results.  Stripping keeps a
cycle's checkpoint byte-identical whatever worker layout produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import List, Optional, Tuple

from ..obs import emit, get_logger, get_registry

CHECKPOINT_VERSION = 6
"""Bumped whenever the on-disk payload shape changes; old files are
then rejected (reason ``version``) instead of mis-read.  Version 2:
pair-block results (raw snapshots + block key) and layout-dependent
counter stripping.  Version 3: ``ShardResult`` grew a ``spans`` field
(worker trace trees) — stripped on save, since span timing is per-run
observability, not a campaign result, and its presence would make
profiled and unprofiled checkpoints diverge.  Version 4:
``replayed_cycles`` is normalised to 0 on save — warm-started workers
(:mod:`repro.par.statestore`) replay fewer cycles than cold ones, and
that schedule detail must not leak into checkpoint bytes.  Version 5:
``StudySpec`` grew an analysis-backend field (the spec hash covers it)
and the stripped prefixes gained the IP2AS-memo counters.  Removing
that field later changed every spec hash, so no version bump was
needed for it.  Version 6: one entry per cycle (``cycle-NNNN``)
replaces the cycle-range entries (``shard-FFFF-LLLL``), and
``ShardResult`` grew the ``entries`` field (cleared on save)."""

LAYOUT_DEPENDENT_PREFIXES = (
    "route_cache_", "hop_cache_", "quoted_stack_cache_",
    "state_snapshot_", "ip2as_lookup_cache_",
    "worker_", "par_shards_stalled")
"""Metric-name prefixes whose values depend on how the probe stream was
split over caches — or, for ``state_snapshot_*``, on how warm the
state store happened to be — stripped from persisted deltas.  The
``ip2as_lookup_cache_*`` family counts batched-lookup memo hits, which
depend on what the process looked up before, so it is execution detail
under the same rule.  The live-telemetry families —
``worker_*`` resource gauges and the stall counter — are per-run
operational state; they can only reach a delta window through a clock
(never through results), and stripping them keeps telemetry-on
checkpoints byte-identical to bare ones even so.  (The registry's
unchanged-gauge diff rule already keeps them out of per-cycle deltas;
this is defence in depth, not a payload-shape change — hence no
version bump.)"""


def strip_layout_dependent(delta: dict) -> dict:
    """A metrics delta without the per-process cache counters.

    Preserves the (sorted) key order of the input, so equal stripped
    deltas pickle to equal bytes.
    """
    return {name: payload for name, payload in delta.items()
            if not name.startswith(LAYOUT_DEPENDENT_PREFIXES)}

_log = get_logger(__name__)
_HITS = get_registry().counter(
    "par_checkpoint_hits_total",
    "Cycles (or pair blocks) restored from a checkpoint instead of "
    "re-run")
_MISSES = get_registry().counter(
    "par_checkpoint_misses_total",
    "Cycle or pair-block checkpoint lookups that found no file")
_WRITES = get_registry().counter(
    "par_checkpoint_writes_total",
    "Cycle or pair-block checkpoints persisted to disk")
_REJECTED = get_registry().counter(
    "par_checkpoint_rejected_total",
    "Checkpoint files rejected instead of reused, by reason")


def spec_hash(spec) -> str:
    """Content hash of a :class:`~repro.par.runner.StudySpec`.

    The spec is plain numbers, so a sorted-key JSON dump is a canonical
    byte form; the checkpoint format version is mixed in so a payload
    change also invalidates old directories.
    """
    payload = json.dumps(
        {"checkpoint_version": CHECKPOINT_VERSION, **asdict(spec)},
        sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class CheckpointStore:
    """Loads and saves cycle and pair-block entries under one spec's
    directory."""

    def __init__(self, root, spec):
        self.spec_hash = spec_hash(spec)
        self.directory = Path(root) / self.spec_hash

    def path_for(self, cycle: int,
                 block: Optional[Tuple[int, int]] = None) -> Path:
        if block is not None:
            index, count = block
            return self.directory / (
                f"cycle-{cycle:04d}-b{index:04d}-{count:04d}.ckpt")
        return self.directory / f"cycle-{cycle:04d}.ckpt"

    def load(self, cycle: int,
             block: Optional[Tuple[int, int]] = None):
        """The stored ShardResult for one cycle or pair block, or None.

        A cycle entry carries that cycle's one result; a block entry
        its raw snapshots.  Anything short of a verified payload —
        missing file, truncated or corrupt pickle, foreign spec hash,
        other format version, an entry filed under another key —
        returns None so the runner re-runs it.
        """
        path = self.path_for(cycle, block)
        try:
            with open(path, "rb") as stream:
                payload = pickle.load(stream)
        except FileNotFoundError:
            _MISSES.inc()
            emit("checkpoint.miss", path=path.name)
            return None
        except Exception as error:  # garbage pickles fail arbitrarily
            self._reject(path, "corrupt", error)
            return None
        return self._verify(path, payload, cycle, block)

    def _verify(self, path: Path, payload, cycle: int,
                block: Optional[Tuple[int, int]]) -> Optional[object]:
        from .runner import ShardResult  # circular at module load time

        if not isinstance(payload, dict):
            return self._reject(path, "corrupt")
        if payload.get("version") != CHECKPOINT_VERSION:
            return self._reject(path, "version")
        if payload.get("spec_hash") != self.spec_hash:
            return self._reject(path, "spec_mismatch")
        result = payload.get("result")
        if not isinstance(result, ShardResult):
            return self._reject(path, "corrupt")
        if block is None:
            usable = ([r.cycle for r in result.results] == [cycle]
                      and result.block is None)
        else:
            usable = (result.block == (cycle,) + tuple(block)
                      and bool(result.snapshots))
        if not usable:
            return self._reject(path, "corrupt")
        _HITS.inc()
        _log.info("checkpoint.hit", path=str(path),
                  cycles=len(result.results))
        emit("checkpoint.hit", path=path.name,
             cycles=len(result.results))
        return result

    def _reject(self, path: Path, reason: str, error=None) -> None:
        _REJECTED.inc(reason=reason)
        _log.warning("checkpoint.rejected", path=str(path),
                     reason=reason,
                     **({"error": str(error)} if error else {}))
        emit("checkpoint.rejected", path=path.name, reason=reason)
        return None

    def encode(self, result) -> bytes:
        """The stored bytes of one cycle or pair block.

        ``result`` holds either exactly one cycle's result or one raw
        pair block.  The stored delta has the layout-dependent counters
        stripped, and the per-run fields (replay count, spans, encoded
        entries) are cleared (module docstring).  Pickle records which
        objects a graph shares, and a result that crossed a process
        boundary shares fewer, so a cycle is encoded in the process
        that computed it — that is what makes its bytes the same
        whatever layout computed it.
        """
        if result.block is None and len(result.results) != 1:
            raise ValueError(f"a cycle entry holds one cycle, got "
                             f"{len(result.results)}")
        payload = {
            "version": CHECKPOINT_VERSION,
            "spec_hash": self.spec_hash,
            "result": replace(
                result,
                metrics_delta=strip_layout_dependent(
                    result.metrics_delta),
                replayed_cycles=0,
                spans=None,
                entries=None),
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def save(self, result) -> List[Path]:
        """Atomically persist a result; returns the paths written.

        A worker's cycle-range result carries its cycles already
        encoded (``result.entries``), and each is written as is under
        its cycle.  Any other result holds one cycle, keyed by that
        cycle, or one pair block, keyed by its (cycle, pair range), and
        is encoded here.
        """
        if result.entries is not None:
            return [self._write(entry, cycle_result.cycle)
                    for cycle_result, entry in zip(result.results,
                                                   result.entries)]
        if result.block is not None:
            cycle, index, count = result.block
            return [self._write(self.encode(result), cycle,
                                (index, count))]
        return [self._write(self.encode(result), result.results[0].cycle)]

    def _write(self, data: bytes, cycle: int,
               block: Optional[Tuple[int, int]] = None) -> Path:
        """Atomically store :meth:`encode` output under its key."""
        path = self.path_for(cycle, block)
        self.directory.mkdir(parents=True, exist_ok=True)
        handle, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        cycles = 0 if block is not None else 1
        _WRITES.inc()
        _log.info("checkpoint.written", path=str(path), cycles=cycles)
        emit("checkpoint.write", path=path.name, cycles=cycles)
        return path
