"""One content-addressed store for what a study leaves on disk.

Two kinds of entry outlive a run, both keyed by cycle: finished cycles
(:class:`~repro.par.checkpoint.CheckpointStore`) and control-plane
snapshots (:class:`~repro.par.statestore.StateStore`).  They share one
trust model, implemented here once:

* the directory ``<root>/<spec-hash>/`` is named by a hash of the
  :class:`~repro.par.runner.StudySpec` mixed with the kind's format
  version, so another spec or format never shares a file;
* every file embeds that version, the spec hash and its cycle, all
  re-verified on read.  A file that fails is *rejected* with a reason
  (``corrupt``, ``version`` or ``spec_mismatch``) and treated as
  absent, never reused;
* writes go through a temp file + ``os.replace``, so a crash mid-write
  leaves no half entry behind;
* each fact — hit, miss, write, rejected — goes out through
  :meth:`ContentStore._record`, which bumps the kind's
  ``<metric>_<fact>_total`` counter (execution metrics), emits the
  ``<kind>.<fact>`` flight-recorder event and logs one line;
* reads and writes run under ``par.store.read`` / ``par.store.write``
  spans tagged with the kind, so ``repro study --profile`` accounts
  for persistence I/O.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional

from ..obs import emit, get_registry, span



class ContentStore:
    """Versioned, spec-addressed, verified per-cycle files of one kind.

    Subclasses set the class attributes below and add their own
    payload fields (:meth:`_encode`) and payload check
    (:meth:`_usable`).
    """

    KIND = ""
    """Event and log prefix (``checkpoint``, ``snapshot``)."""
    METRIC = ""
    """Counter prefix: ``<METRIC>_{hits,misses,writes,rejected}_total``."""
    VERSION = 0
    VERSION_FIELD = ""
    """The name the format version goes under in the spec hash."""
    PATTERN = ""
    """File name of one cycle's entry, ``str.format``-ed with it."""
    NOUN = ""
    """What one entry is, for counter help texts."""

    _FACTS = {
        "hit": ("hits", "{} lookups served from a verified file"),
        "miss": ("misses", "{} lookups that found no usable file"),
        "write": ("writes", "{} files persisted to disk"),
        "rejected": ("rejected", "{} files rejected instead of reused, "
                                 "by reason"),
    }

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._counters = {
            fact: get_registry().counter(
                f"{cls.METRIC}_{plural}_total", help.format(cls.NOUN),
                execution=True)
            for fact, (plural, help) in cls._FACTS.items()}

    def __init__(self, root, spec):
        self.spec_hash = self.hash_spec(spec)
        self.directory = Path(root) / self.spec_hash

    @classmethod
    def hash_spec(cls, spec) -> str:
        """Content hash of a spec under this kind's format version.

        The spec is plain numbers, so a sorted-key JSON dump is a
        canonical byte form; mixing the version in invalidates old
        directories when the format changes, per kind.
        """
        payload = json.dumps({cls.VERSION_FIELD: cls.VERSION,
                              **asdict(spec)}, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def path_for(self, cycle: int) -> Path:
        return self.directory / self.PATTERN.format(cycle)

    # -- internals -----------------------------------------------------------

    def _encode(self, cycle: int, **fields: Any) -> bytes:
        """The stored bytes of one cycle's entry."""
        return pickle.dumps({"version": self.VERSION,
                             "spec_hash": self.spec_hash,
                             "cycle": cycle, **fields},
                            protocol=pickle.HIGHEST_PROTOCOL)

    def _usable(self, payload: Dict[str, Any]) -> bool:
        """Whether a payload's kind-specific fields are well-formed."""
        raise NotImplementedError

    def _read(self, cycle: int) -> Optional[Dict[str, Any]]:
        """One cycle's verified payload, or None.

        A missing file returns None quietly; anything else short of a
        verified payload — a truncated or garbage pickle, another
        format version, a foreign spec hash, an entry filed under
        another cycle — is rejected first.
        """
        path = self.path_for(cycle)
        with span("par.store.read", kind=self.KIND):
            try:
                with open(path, "rb") as stream:
                    payload = pickle.load(stream)
            except FileNotFoundError:
                return None
            except Exception as error:  # garbage pickles fail arbitrarily
                return self._reject(path, "corrupt", error)
            if not isinstance(payload, dict):
                reason = "corrupt"
            elif payload.get("version") != self.VERSION:
                reason = "version"
            elif payload.get("spec_hash") != self.spec_hash:
                reason = "spec_mismatch"
            elif payload.get("cycle") != cycle or not self._usable(payload):
                reason = "corrupt"
            else:
                return payload
            return self._reject(path, reason)

    def _write(self, cycle: int, data: bytes) -> Path:
        """Atomically store :meth:`_encode` output under its cycle."""
        path = self.path_for(cycle)
        with span("par.store.write", kind=self.KIND):
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
        self._record("write", path=path.name, cycle=cycle)
        return path

    def _reject(self, path: Path, reason: str, error=None) -> None:
        self._record("rejected", error=error, path=path.name,
                     reason=reason)
        return None

    def _record(self, fact: str, error=None, **fields: Any) -> None:
        """Counter and event of one store fact."""
        self._counters[fact].inc(**({"reason": fields["reason"]}
                                    if fact == "rejected" else {}))
        emit(f"{self.KIND}.{fact}", **fields,
             **({"error": str(error)} if error else {}))
