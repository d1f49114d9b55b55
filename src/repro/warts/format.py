"""Binary warts-like trace archive format.

CAIDA distributes Archipelago traceroutes in scamper's *warts* format.  We
implement a compact binary format with the same role — an append-only
sequence of length-prefixed trace records — so the analysis pipeline
exercises a real parse step instead of holding everything in memory.

Layout (all integers big-endian):

* file header: magic ``b"RWTS"``, u16 version.
* per trace: u32 record length, then the record body::

      u8  monitor-name length, monitor name (utf-8)
      u32 src, u32 dst
      f64 timestamp
      u8  stop reason code
      u16 hop count, then per hop:
          u8  probe ttl
          u8  flags (bit0: responded, bit1: has labels)
          u32 address        (present iff responded)
          f32 rtt in ms      (present iff responded)
          u8  quoted IP TTL  (present iff responded; the qTTL)
          u8  LSE count, then u32 wire LSEs (present iff has labels)

The format is self-framing: a reader can skip unknown records by length,
and truncated files fail loudly with :class:`WartsError`.
:func:`encode_trace` writes a plain hop (a reply quoting no labels) in
one pack and any other hop field by field.
:class:`WartsReader` frames records off one buffer it refills by
64 KiB chunk, reading each length prefix at a running offset; a
record body is decoded at an offset too, a plain hop (a reply quoting
no labels) in one unpack and any other hop field by field, and its
hops are built with :func:`repro.traces.make_hop`.  :func:`read_archive`
and :func:`salvage_archive` share one read inside
:func:`repro.traces.gc_paused` (DESIGN §8).  Real measurement
archives are messier — CAIDA ships partial ``.warts.gz`` files, transfers
truncate, disks corrupt — so :class:`WartsReader` also offers an opt-in
``tolerant=True`` *salvage* mode that skips corrupt records (bounded
lengths, magic-based resync, decode errors) instead of aborting, counting
every skip by reason in ``warts_records_skipped_total{reason}``.
"""

from __future__ import annotations

import gzip
import struct
from typing import BinaryIO, Dict, Iterator, List, Tuple

from ..mpls.lse import LabelStackEntry
from ..obs import emit, get_registry
from ..traces import StopReason, Trace, TraceHop, gc_paused, make_hop

MAGIC = b"RWTS"
VERSION = 2

MAX_RECORD_LENGTH = 16 * 1024 * 1024
"""Upper bound on one record's claimed length.  A corrupt u32 near 2^32
must never turn into a multi-GB allocation: real traces are a few KiB,
so anything above this cap is treated as framing corruption."""

_CHUNK = 1 << 16
"""Bytes per read of the underlying stream (framing refills and the
resync scan alike)."""

_RECORDS_SKIPPED = get_registry().counter(
    "warts_records_skipped_total",
    "Corrupt archive records skipped by tolerant readers, by reason")

_STOP_CODES = {reason: code for code, reason in enumerate(StopReason)}
_STOP_REASONS = {code: reason for reason, code in _STOP_CODES.items()}

_FLAG_RESPONDED = 0x01
_FLAG_LABELS = 0x02

# Hot-path formats, compiled once: encode/decode run per hop and per
# LSE over millions of records, where struct.pack/unpack's per-call
# format parse and cache lookup are measurable.
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_HOP_HEAD = struct.Struct("!BB")
_HOP_RESPONSE = struct.Struct("!IfB")
_PLAIN_HOP = struct.Struct("!BxIfB")
"""A whole plain hop (flags exactly ``_FLAG_RESPONDED``: a reply
quoting no labels), read in one unpack: probe ttl, the flag byte
skipped, address, rtt, quoted ttl."""
_PLAIN_HOP_OUT = struct.Struct("!BBIfB")
"""A whole plain hop as written, in one pack: probe ttl, flags
(exactly ``_FLAG_RESPONDED``), address, rtt, quoted ttl -- the bytes
of ``_HOP_HEAD`` then ``_HOP_RESPONSE``."""
_TRACE_HEAD = struct.Struct("!IIdBH")

Stack = Tuple[LabelStackEntry, ...]


class WartsError(ValueError):
    """Raised on malformed archive data."""


def _encode_hop(hop: TraceHop) -> bytes:
    """One hop's bytes: a plain hop (a reply quoting no labels) in one
    pack, any other hop field by field."""
    probe_ttl, address, rtt_ms, stack, quoted_ttl = hop
    if address is not None and not stack:
        return _PLAIN_HOP_OUT.pack(probe_ttl, _FLAG_RESPONDED, address,
                                   rtt_ms, quoted_ttl)
    flags = 0
    if address is not None:
        flags |= _FLAG_RESPONDED
    if stack:
        flags |= _FLAG_LABELS
    parts = [_HOP_HEAD.pack(probe_ttl, flags)]
    if address is not None:
        parts.append(_HOP_RESPONSE.pack(address, rtt_ms, quoted_ttl))
    if stack:
        parts.append(_U8.pack(len(stack)))
        parts.extend(_U32.pack(entry.encode()) for entry in stack)
    return b"".join(parts)


def encode_trace(trace: Trace) -> bytes:
    """Serialize one trace record body (without the length prefix)."""
    name = trace.monitor.encode("utf-8")
    if len(name) > 255:
        raise WartsError(f"monitor name too long: {trace.monitor!r}")
    if len(trace.hops) > 0xFFFF:
        raise WartsError(f"too many hops: {len(trace.hops)}")
    parts = [
        _U8.pack(len(name)),
        name,
        _TRACE_HEAD.pack(
            trace.src,
            trace.dst,
            trace.timestamp,
            _STOP_CODES[trace.stop_reason],
            len(trace.hops),
        ),
    ]
    parts.extend(map(_encode_hop, trace.hops))
    return b"".join(parts)


def decode_trace(body: bytes) -> Trace:
    """Parse one trace record body."""
    return _decode_record(body, {})


def _decode_record(body: bytes, stacks: Dict[bytes, Stack]) -> Trace:
    """Parse one record body; ``stacks`` memoises decoded label stacks.

    Every field is read with ``Struct.unpack_from`` (a bare byte by
    index) at a running offset instead of slicing the body per field;
    a plain hop (flags exactly ``_FLAG_RESPONDED``, most hops of an
    archive) is read whole with one :data:`_PLAIN_HOP` unpack, and
    every other flag value field by field.  A read past the end
    raises ``struct.error`` or ``IndexError``, mapped to
    :class:`WartsError` here, in one place.
    """
    try:
        name_end = 1 + body[0]
        src, dst, timestamp, stop_code, hop_count = \
            _TRACE_HEAD.unpack_from(body, name_end)
        monitor = body[1:name_end].decode("utf-8")
        if stop_code not in _STOP_REASONS:
            raise WartsError(f"unknown stop reason code {stop_code}")
        offset = name_end + _TRACE_HEAD.size
        plain_hop = _PLAIN_HOP.unpack_from
        plain_size = _PLAIN_HOP.size
        responded = _FLAG_RESPONDED
        hop_response = _HOP_RESPONSE.unpack_from
        hops: List[TraceHop] = []
        append = hops.append
        for _ in range(hop_count):
            if body[offset + 1] == responded:
                probe_ttl, address, rtt, quoted_ttl = plain_hop(body,
                                                                offset)
                offset += plain_size
                append(make_hop((probe_ttl, address, rtt, (),
                                 quoted_ttl)))
                continue
            probe_ttl = body[offset]
            flags = body[offset + 1]
            offset += 2
            if flags & _FLAG_RESPONDED:
                address, rtt, quoted_ttl = hop_response(body, offset)
                offset += _HOP_RESPONSE.size
            else:
                address = None
                rtt = 0.0
                quoted_ttl = 1
            stack: Stack = ()
            if flags & _FLAG_LABELS:
                start = offset + 1
                offset = start + 4 * body[offset]
                if offset > len(body):
                    raise WartsError("truncated record")
                raw = body[start:offset]
                stack = stacks.get(raw)
                if stack is None:
                    stack = stacks[raw] = tuple(
                        LabelStackEntry.decode(word)
                        for (word,) in _U32.iter_unpack(raw))
            append(make_hop((probe_ttl, address, rtt, stack, quoted_ttl)))
    except (struct.error, IndexError):
        raise WartsError("truncated record") from None
    except UnicodeDecodeError as exc:
        raise WartsError(f"monitor name is not utf-8: {exc}") from None
    if offset != len(body):
        raise WartsError(f"{len(body) - offset} trailing bytes in record")
    return Trace(monitor=monitor, src=src, dst=dst, timestamp=timestamp,
                 stop_reason=_STOP_REASONS[stop_code], hops=hops)


class WartsWriter:
    """Streams traces into a binary archive."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._stream.write(MAGIC + _U16.pack(VERSION))
        self.written = 0

    def write(self, trace: Trace) -> None:
        """Append one trace record."""
        body = encode_trace(trace)
        self._stream.write(_U32.pack(len(body)))
        self._stream.write(body)
        self.written += 1

    def write_all(self, traces) -> None:
        """Append every trace from an iterable."""
        for trace in traces:
            self.write(trace)


class WartsReader:
    """Iterates traces out of a binary archive.

    Strict by default: any framing or decode problem raises
    :class:`WartsError`.  With ``tolerant=True`` the reader *salvages*
    instead — every intact record is yielded and each corrupt one is
    skipped and tallied in :attr:`skipped` (and the
    ``warts_records_skipped_total{reason}`` counter):

    * ``oversized_length`` — the length prefix exceeds
      :data:`MAX_RECORD_LENGTH`; the framing is untrustworthy, so the
      reader scans forward for the next embedded file header (magic +
      version) and resumes there;
    * ``truncated_length`` / ``truncated_body`` — the archive ends
      mid-record (a partial transfer); reading stops cleanly;
    * ``decode_error`` — the record body is well-framed but does not
      parse; only that record is lost.
    """

    def __init__(self, stream: BinaryIO, tolerant: bool = False):
        self._stream = stream
        # Records are framed off one buffer at a running offset; the
        # buffer is refilled by chunk only when a frame runs past it.
        self._buffer = b""
        self._offset = 0
        self.tolerant = tolerant
        self.skipped: Dict[str, int] = {}
        # Decoded label stacks by their raw LSE bytes, shared by every
        # hop that quotes the same stack: an archive holds far fewer
        # distinct stacks than labeled hops (DESIGN §8).
        self._stacks: Dict[bytes, Stack] = {}
        if self._fill(6) < 6 or self._buffer[:4] != MAGIC:
            raise WartsError("not a warts-like archive (bad magic)")
        (version,) = _U16.unpack_from(self._buffer, 4)
        if version != VERSION:
            raise WartsError(f"unsupported version {version}")
        self._offset = 6

    def _fill(self, count: int) -> int:
        """Make ``count`` bytes available at the offset, reading whole
        chunks; returns how many are (fewer only at end of stream)."""
        available = len(self._buffer) - self._offset
        if available >= count:
            return available
        parts = [self._buffer[self._offset:]]
        while available < count:
            chunk = self._stream.read(max(_CHUNK, count - available))
            if not chunk:
                break
            parts.append(chunk)
            available += len(chunk)
        self._buffer = b"".join(parts)
        self._offset = 0
        return available

    def _skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1
        _RECORDS_SKIPPED.inc(reason=reason)
        emit("warts.record.skipped", reason=reason)

    def _resync(self) -> bool:
        """Scan forward from the offset for an embedded file header;
        position after it.

        The record stream is length-prefixed with no per-record marker,
        so once a length prefix is corrupt the only trustworthy anchor
        is the next ``MAGIC`` + version sequence (archives are often
        produced by concatenating files).  Returns False at end of
        stream with no anchor found.
        """
        window = self._buffer[self._offset:]
        self._buffer = b""
        self._offset = 0
        while True:
            index = window.find(MAGIC)
            if index >= 0:
                rest = window[index + len(MAGIC):]
                while len(rest) < 2:
                    chunk = self._stream.read(_CHUNK)
                    if not chunk:
                        return False
                    rest += chunk
                (version,) = _U16.unpack_from(rest)
                if version == VERSION:
                    self._buffer = rest
                    self._offset = 2
                    return True
                window = rest  # false positive; keep scanning after it
                continue
            # Keep a possible magic prefix straddling the chunk border.
            window = window[-(len(MAGIC) - 1):]
            chunk = self._stream.read(_CHUNK)
            if not chunk:
                return False
            window += chunk

    def __iter__(self) -> Iterator[Trace]:
        tolerant = self.tolerant
        stacks = self._stacks
        fill = self._fill
        unpack_length = _U32.unpack_from
        while True:
            available = fill(4)
            if available < 4:
                if not available:
                    return
                if tolerant:
                    self._skip("truncated_length")
                    return
                raise WartsError("truncated record length")
            (length,) = unpack_length(self._buffer, self._offset)
            if length > MAX_RECORD_LENGTH:
                if tolerant:
                    self._skip("oversized_length")
                    # The four length bytes stay at the offset: they
                    # may themselves start an embedded file header
                    # (concatenated archives), so the scan sees them.
                    if not self._resync():
                        return
                    continue
                raise WartsError(
                    f"record length {length} exceeds the "
                    f"{MAX_RECORD_LENGTH}-byte cap (corrupt archive?)")
            if available < 4 + length and fill(4 + length) < 4 + length:
                if tolerant:
                    self._skip("truncated_body")
                    return
                raise WartsError("truncated record body")
            start = self._offset + 4
            self._offset = end = start + length
            try:
                trace = _decode_record(self._buffer[start:end], stacks)
            except WartsError:
                if tolerant:
                    self._skip("decode_error")
                    continue
                raise
            yield trace


def _opener(path, mode: str):
    """gzip-transparent file opener (CAIDA ships .warts.gz too)."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def write_archive(path, traces) -> int:
    """Write traces to a file (gzipped when the name ends in .gz);
    returns the number written."""
    with _opener(path, "wb") as stream:
        writer = WartsWriter(stream)
        writer.write_all(traces)
        return writer.written


def _read(path, tolerant: bool) -> Tuple[List[Trace], Dict[str, int]]:
    """The one archive read: every trace of a (possibly gzipped) file
    and the per-reason tally of corrupt records skipped, decoded with
    the cyclic collector paused."""
    with gc_paused(), _opener(path, "rb") as stream:
        reader = WartsReader(stream, tolerant=tolerant)
        return list(reader), dict(reader.skipped)


def read_archive(path, tolerant: bool = False) -> List[Trace]:
    """Read every trace from a (possibly gzipped) file.

    ``tolerant=True`` salvages what it can from a corrupt archive
    instead of raising (see :class:`WartsReader`); use
    :func:`salvage_archive` when the skip tally is needed too.
    """
    return _read(path, tolerant)[0]


def salvage_archive(path) -> Tuple[List[Trace], Dict[str, int]]:
    """Tolerantly read a (possibly gzipped) file; also return the
    per-reason tally of corrupt records skipped."""
    return _read(path, tolerant=True)
