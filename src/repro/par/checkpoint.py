"""Shard-granular checkpointing for restartable studies.

A multi-hour campaign must not lose everything to one crash near the
end.  Each completed shard's :class:`~repro.par.runner.ShardResult`
(the ordered ``CycleResult`` list plus the shard's metrics delta) is
persisted as soon as the parent collects it; a restarted study loads
the finished shards back and dispatches only the missing cycle ranges.
Because every shard is a pure function of ``(StudySpec, cycle range)``
(DESIGN §6/§8), a resumed run is byte-identical to an uninterrupted one.

Layout: ``<checkpoint-dir>/<spec-hash>/shard-<first>-<last>.ckpt`` for
cycle-range shards; intra-cycle pair blocks (DESIGN §8) add a block
component — ``shard-<first>-<last>-b<index>-<count>.ckpt`` — so the
checkpoint key is ``(spec, cycle range, pair range)``.  The directory
is **content-addressed by the spec hash**, and the hash is verified
again inside each file, so a stale checkpoint from a different spec
(other seed, scale, filter knobs, or format version) is *rejected* —
counted in ``par_checkpoint_rejected_total{reason}`` — never silently
reused.  Writes go through a temp file + ``os.replace`` so a crash
mid-write leaves no half-checkpoint behind; unreadable files degrade
to a re-run of that shard, not an abort.

Persisted metrics deltas are **stripped of layout-dependent cache
counters** (``route_cache_*``, ``hop_cache_*``,
``quoted_stack_cache_*``): serial and sharded runs split the same probe
stream over differently warmed per-era caches, so those hit/miss splits
are per-process observability, not campaign results.  Stripping keeps a
cycle's checkpoint byte-identical whatever worker layout produced it —
which is also what lets a serial run's per-cycle checkpoints seed a
parallel resume and vice versa.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Tuple

from ..obs import emit, get_logger, get_registry

CHECKPOINT_VERSION = 5
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
needed for it."""

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
    "Shards restored from a checkpoint instead of re-run")
_MISSES = get_registry().counter(
    "par_checkpoint_misses_total",
    "Shard checkpoint lookups that found no file")
_WRITES = get_registry().counter(
    "par_checkpoint_writes_total",
    "Shard checkpoints persisted to disk")
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
    """Loads and saves shard results under one spec's directory."""

    def __init__(self, root, spec):
        self.spec_hash = spec_hash(spec)
        self.directory = Path(root) / self.spec_hash

    def path_for(self, first: int, last: int,
                 block: Optional[Tuple[int, int]] = None) -> Path:
        if block is not None:
            index, count = block
            return self.directory / (
                f"shard-{first:04d}-{last:04d}"
                f"-b{index:04d}-{count:04d}.ckpt")
        return self.directory / f"shard-{first:04d}-{last:04d}.ckpt"

    def load(self, first: int, last: int,
             block: Optional[Tuple[int, int]] = None):
        """The stored ShardResult for one cycle/pair range, or None.

        Anything short of a verified payload — missing file, truncated
        or corrupt pickle, foreign spec hash, other format version —
        returns None so the runner re-runs the shard.
        """
        path = self.path_for(first, last, block)
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
        return self._verify(path, payload)

    def _verify(self, path: Path, payload) -> Optional[object]:
        from .runner import ShardResult  # circular at module load time

        if not isinstance(payload, dict):
            return self._reject(path, "corrupt")
        if payload.get("version") != CHECKPOINT_VERSION:
            return self._reject(path, "version")
        if payload.get("spec_hash") != self.spec_hash:
            return self._reject(path, "spec_mismatch")
        result = payload.get("result")
        if not isinstance(result, ShardResult) or \
                not (result.results or result.snapshots):
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

    def save(self, result) -> Path:
        """Atomically persist one shard result; returns its path.

        Pair-block results are keyed by their (cycle, pair-range);
        every stored delta has the layout-dependent cache counters
        stripped (module docstring).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if result.block is not None:
            cycle, index, count = result.block
            path = self.path_for(cycle, cycle, (index, count))
        else:
            first = result.results[0].cycle
            last = result.results[-1].cycle
            path = self.path_for(first, last)
        payload = {
            "version": CHECKPOINT_VERSION,
            "spec_hash": self.spec_hash,
            "result": replace(
                result,
                metrics_delta=strip_layout_dependent(
                    result.metrics_delta),
                replayed_cycles=0,
                spans=None),
        }
        handle, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(payload, stream,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _WRITES.inc()
        _log.info("checkpoint.written", path=str(path),
                  cycles=len(result.results))
        emit("checkpoint.write", path=path.name,
             cycles=len(result.results))
        return path
