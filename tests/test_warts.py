"""Unit tests for the warts-like binary trace codec."""

import gzip
import hashlib
import io
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpls.lse import LabelStackEntry
from repro.net.ip import ip_to_int
from repro.obs import get_registry
from repro.traces import StopReason, Trace, TraceHop, make_hop
from repro.warts.format import (
    MAGIC,
    MAX_RECORD_LENGTH,
    VERSION,
    WartsError,
    WartsReader,
    WartsWriter,
    decode_trace,
    encode_trace,
    read_archive,
    salvage_archive,
    write_archive,
)


def sample_trace(monitor="mon-a", hop_count=3, with_labels=True):
    hops = []
    for ttl in range(1, hop_count + 1):
        stack = ()
        if with_labels and ttl == 2:
            stack = (LabelStackEntry(300100, tc=0, bottom=True, ttl=254),)
        hops.append(TraceHop(
            probe_ttl=ttl,
            address=ip_to_int("10.0.0.0") + ttl,
            rtt_ms=1.5 * ttl,
            quoted_stack=stack,
        ))
    return Trace(
        monitor=monitor,
        src=ip_to_int("192.0.2.1"),
        dst=ip_to_int("198.51.100.7"),
        timestamp=1234.5,
        stop_reason=StopReason.COMPLETED,
        hops=hops,
    )


def anonymous_trace():
    return Trace(
        monitor="mon-b",
        src=1, dst=2, timestamp=0.0,
        stop_reason=StopReason.GAP_LIMIT,
        hops=[
            TraceHop(probe_ttl=1, address=10, rtt_ms=0.4),
            TraceHop(probe_ttl=2, address=None),
            TraceHop(probe_ttl=3, address=12, rtt_ms=2.25,
                     quoted_stack=(
                         LabelStackEntry(17, bottom=False, ttl=253),
                         LabelStackEntry(42, bottom=True, ttl=253),
                     )),
        ],
    )


def traces_equal(left, right):
    if (left.monitor, left.src, left.dst, left.stop_reason) != (
            right.monitor, right.src, right.dst, right.stop_reason):
        return False
    if abs(left.timestamp - right.timestamp) > 1e-9:
        return False
    if len(left.hops) != len(right.hops):
        return False
    for a, b in zip(left.hops, right.hops):
        if (a.probe_ttl, a.address, a.quoted_stack) != (
                b.probe_ttl, b.address, b.quoted_stack):
            return False
        if abs(a.rtt_ms - b.rtt_ms) > 1e-3:  # f32 storage
            return False
    return True


class TestBinaryCodec:
    def test_record_round_trip(self):
        trace = sample_trace()
        assert traces_equal(decode_trace(encode_trace(trace)), trace)

    def test_anonymous_and_stack_round_trip(self):
        trace = anonymous_trace()
        decoded = decode_trace(encode_trace(trace))
        assert traces_equal(decoded, trace)
        assert decoded.hops[1].is_anonymous
        assert decoded.hops[2].labels == (17, 42)

    def test_stream_round_trip(self):
        buffer = io.BytesIO()
        writer = WartsWriter(buffer)
        originals = [sample_trace(f"mon-{i}") for i in range(5)]
        writer.write_all(originals)
        assert writer.written == 5
        buffer.seek(0)
        loaded = list(WartsReader(buffer))
        assert len(loaded) == 5
        assert all(traces_equal(a, b) for a, b in zip(originals, loaded))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cycle.rwts"
        originals = [sample_trace(), anonymous_trace()]
        assert write_archive(path, originals) == 2
        loaded = read_archive(path)
        assert all(traces_equal(a, b) for a, b in zip(originals, loaded))

    def test_bad_magic(self):
        with pytest.raises(WartsError, match="magic"):
            WartsReader(io.BytesIO(b"NOPE\x00\x01"))

    def test_bad_version(self):
        with pytest.raises(WartsError, match="version"):
            WartsReader(io.BytesIO(b"RWTS\x00\x63"))

    def test_truncated_body(self):
        buffer = io.BytesIO()
        WartsWriter(buffer).write(sample_trace())
        data = buffer.getvalue()[:-3]
        with pytest.raises(WartsError, match="truncated"):
            list(WartsReader(io.BytesIO(data)))

    def test_trailing_bytes_rejected(self):
        body = encode_trace(sample_trace()) + b"\x00"
        with pytest.raises(WartsError, match="trailing"):
            decode_trace(body)

    def test_empty_archive(self):
        buffer = io.BytesIO()
        WartsWriter(buffer)
        buffer.seek(0)
        assert list(WartsReader(buffer)) == []

    def test_monitor_name_length_limit(self):
        trace = sample_trace(monitor="x" * 256)
        with pytest.raises(WartsError, match="monitor"):
            encode_trace(trace)

    def test_record_length_cap_rejected_before_allocation(self):
        # A corrupt length near 2^32 must raise, not attempt a
        # multi-GB read; nothing beyond the prefix is consumed.
        header = MAGIC + struct.pack("!H", VERSION)
        data = header + struct.pack("!I", 0xFFFFFFF0)
        with pytest.raises(WartsError, match="cap"):
            list(WartsReader(io.BytesIO(data)))

    def test_record_length_cap_boundary(self):
        header = MAGIC + struct.pack("!H", VERSION)
        data = header + struct.pack("!I", MAX_RECORD_LENGTH + 1)
        with pytest.raises(WartsError, match="cap"):
            list(WartsReader(io.BytesIO(data)))


def archive_bytes(traces):
    buffer = io.BytesIO()
    WartsWriter(buffer).write_all(traces)
    return buffer.getvalue()


class TestTolerantReader:
    def test_strict_by_default(self):
        data = archive_bytes([sample_trace()])[:-3]
        with pytest.raises(WartsError):
            list(WartsReader(io.BytesIO(data)))

    def test_truncated_body_salvaged(self):
        originals = [sample_trace(f"mon-{i}") for i in range(3)]
        data = archive_bytes(originals)[:-3]
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        loaded = list(reader)
        assert len(loaded) == 2
        assert all(traces_equal(a, b)
                   for a, b in zip(originals, loaded))
        assert reader.skipped == {"truncated_body": 1}

    def test_truncated_length_salvaged(self):
        data = archive_bytes([sample_trace()]) + b"\x00\x01"
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.skipped == {"truncated_length": 1}

    def test_decode_error_skips_only_that_record(self):
        good = encode_trace(sample_trace())
        bad = b"\xff" * 24  # framed fine, parses to garbage
        data = (MAGIC + struct.pack("!H", VERSION)
                + struct.pack("!I", len(bad)) + bad
                + struct.pack("!I", len(good)) + good)
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        loaded = list(reader)
        assert len(loaded) == 1
        assert traces_equal(loaded[0], sample_trace())
        assert reader.skipped == {"decode_error": 1}

    def test_oversized_length_resyncs_on_embedded_header(self):
        # Corrupt framing followed by a concatenated archive: the
        # reader abandons the bad region, finds the embedded magic,
        # and keeps going.
        first = archive_bytes([sample_trace("mon-a")])
        second = archive_bytes([sample_trace("mon-b"),
                                sample_trace("mon-c")])
        data = (first
                + struct.pack("!I", 0xF0000000) + b"\xde\xad" * 11
                + second)
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        loaded = list(reader)
        assert [t.monitor for t in loaded] == ["mon-a", "mon-b", "mon-c"]
        assert reader.skipped.get("oversized_length") == 1

    def test_concatenated_archives_read_seamlessly(self):
        data = (archive_bytes([sample_trace("mon-a")])
                + archive_bytes([sample_trace("mon-b")]))
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        assert [t.monitor for t in reader] == ["mon-a", "mon-b"]

    def test_garbage_tail_without_anchor_stops_cleanly(self):
        data = (archive_bytes([sample_trace()])
                + struct.pack("!I", 0xF0000000) + b"\x99" * 100)
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.skipped == {"oversized_length": 1}

    def test_salvage_archive_reports_tally(self, tmp_path):
        path = tmp_path / "broken.rwts"
        originals = [sample_trace(f"mon-{i}") for i in range(4)]
        payload = archive_bytes(originals)
        path.write_bytes(payload[:-5])
        traces, skipped = salvage_archive(path)
        assert len(traces) == 3
        assert skipped == {"truncated_body": 1}
        with pytest.raises(WartsError):
            read_archive(path)
        assert len(read_archive(path, tolerant=True)) == 3

    def test_bad_utf8_monitor_is_a_decode_error(self):
        good = encode_trace(sample_trace())
        bad = b"\x01\xff" + good[1 + len("mon-a"):]  # 1-byte name 0xFF
        framed = b"".join(struct.pack("!I", len(body)) + body
                          for body in (bad, good))
        data = MAGIC + struct.pack("!H", VERSION) + framed
        with pytest.raises(WartsError, match="utf-8"):
            decode_trace(bad)
        with pytest.raises(WartsError, match="utf-8"):
            list(WartsReader(io.BytesIO(data)))
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        loaded = list(reader)
        assert len(loaded) == 1
        assert traces_equal(loaded[0], sample_trace())
        assert reader.skipped == {"decode_error": 1}

    def test_unknown_stop_code_is_a_decode_error(self):
        body = bytearray(encode_trace(sample_trace()))
        body[1 + len("mon-a") + 16] = 0xEE  # the stop-reason byte
        with pytest.raises(WartsError, match="stop reason"):
            decode_trace(bytes(body))

    def test_label_block_past_the_end_is_truncation(self):
        body = encode_trace(sample_trace())
        with pytest.raises(WartsError, match="truncated"):
            decode_trace(body[:-2])

    def test_skip_counter_increments(self):
        counter = get_registry().counter("warts_records_skipped_total")
        before = counter.value(reason="truncated_body")
        data = archive_bytes([sample_trace()])[:-3]
        list(WartsReader(io.BytesIO(data), tolerant=True))
        assert counter.value(reason="truncated_body") == before + 1


@given(st.lists(st.tuples(
    st.integers(min_value=1, max_value=255),           # probe ttl
    st.one_of(st.none(), st.integers(min_value=0,
                                     max_value=0xFFFFFFFF)),  # address
    st.lists(st.integers(min_value=16, max_value=(1 << 20) - 1),
             max_size=3),                               # labels
    st.floats(width=32, allow_nan=False),               # rtt (f32-exact)
    st.integers(min_value=0, max_value=255),            # quoted ttl
), max_size=12))
def test_binary_round_trip_property(hop_specs):
    hops = []
    for ttl, address, labels, rtt_ms, quoted_ttl in hop_specs:
        stack = tuple(
            LabelStackEntry(label, bottom=(i == len(labels) - 1), ttl=200)
            for i, label in enumerate(labels)
        )
        if address is None:
            # An anonymous hop quotes nothing and has no RTT or qTTL.
            stack, rtt_ms, quoted_ttl = (), 0.0, 1
        hops.append(TraceHop(
            probe_ttl=ttl, address=address, rtt_ms=rtt_ms,
            quoted_stack=stack, quoted_ttl=quoted_ttl,
        ))
    trace = Trace(monitor="prop", src=1, dst=2, timestamp=9.25,
                  stop_reason=StopReason.LOOP, hops=hops)
    decoded = decode_trace(encode_trace(trace))
    assert traces_equal(decoded, trace)
    # Every field, rtt and qTTL included, survives exactly.
    assert decoded.hops == trace.hops


class TestGzipArchives:
    def test_gz_round_trip(self, tmp_path):
        path = tmp_path / "cycle.rwts.gz"
        originals = [sample_trace(), anonymous_trace()]
        assert write_archive(path, originals) == 2
        loaded = read_archive(path)
        assert all(traces_equal(a, b)
                   for a, b in zip(originals, loaded))

    def test_gz_actually_compressed(self, tmp_path):
        plain = tmp_path / "a.rwts"
        packed = tmp_path / "a.rwts.gz"
        traces = [sample_trace(f"mon-{i}") for i in range(50)]
        write_archive(plain, traces)
        write_archive(packed, traces)
        assert packed.stat().st_size < plain.stat().st_size
        with open(packed, "rb") as stream:
            assert stream.read(2) == b"\x1f\x8b"  # gzip magic


def labeled_trace(monitor, labels):
    """Responding hops quoting one explicit LSE each (``None``: none)."""
    hops = tuple(
        TraceHop(probe_ttl=ttl, address=1000 + ttl, rtt_ms=0.25 * ttl,
                 quoted_stack=(() if label is None else
                               (LabelStackEntry(label, bottom=True,
                                                ttl=1),)))
        for ttl, label in enumerate(labels, start=1))
    return Trace(monitor=monitor, src=1, dst=2, timestamp=1.0,
                 stop_reason=StopReason.COMPLETED, hops=list(hops))


class TestStackMemo:
    def test_reader_shares_equal_stacks(self):
        data = archive_bytes([labeled_trace("a", [None, 100, 200]),
                              labeled_trace("b", [None, 100, 300])])
        first, second = WartsReader(io.BytesIO(data))
        assert first.hops[1].quoted_stack is second.hops[1].quoted_stack
        assert first.hops[2].quoted_stack != second.hops[2].quoted_stack
        assert first.hops[0].quoted_stack == ()

    def test_decode_trace_uses_a_fresh_memo(self):
        body = encode_trace(labeled_trace("a", [100]))
        one, two = decode_trace(body), decode_trace(body)
        assert one.hops[0].quoted_stack == two.hops[0].quoted_stack
        assert one.hops[0].quoted_stack is not two.hops[0].quoted_stack

    def test_memo_is_per_reader(self):
        data = archive_bytes([labeled_trace("a", [100])])
        (one,) = WartsReader(io.BytesIO(data))
        (two,) = WartsReader(io.BytesIO(data))
        assert one.hops[0].quoted_stack is not two.hops[0].quoted_stack


_FUZZ_ARCHIVE = archive_bytes([
    sample_trace("mon-a"), anonymous_trace(),
    labeled_trace("mon-b", [None, 100, 200, None]),
    sample_trace("mon-c", hop_count=5),
])


def _read_or_warts_error(data, tolerant):
    try:
        return list(WartsReader(io.BytesIO(data), tolerant=tolerant))
    except WartsError:
        if tolerant and data[:6] == _FUZZ_ARCHIVE[:6]:
            raise  # only a bad file header may abort a salvage
        return None


class TestCorruptionFuzz:
    """A damaged archive either decodes or fails with WartsError only;
    a tolerant reader never fails once the file header is intact."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=len(_FUZZ_ARCHIVE)))
    def test_truncation(self, cut):
        data = _FUZZ_ARCHIVE[:cut]
        _read_or_warts_error(data, tolerant=False)
        _read_or_warts_error(data, tolerant=True)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=len(_FUZZ_ARCHIVE) - 1),
           st.integers(min_value=1, max_value=255))
    def test_one_flipped_byte(self, index, mask):
        data = bytearray(_FUZZ_ARCHIVE)
        data[index] ^= mask
        _read_or_warts_error(bytes(data), tolerant=False)
        _read_or_warts_error(bytes(data), tolerant=True)


class TestTraceHopInit:
    def hop(self):
        return TraceHop(3, 1234, 1.5,
                        (LabelStackEntry(100, bottom=True, ttl=1),), 2)

    def test_fields_order(self):
        assert TraceHop._fields == ("probe_ttl", "address", "rtt_ms",
                                    "quoted_stack", "quoted_ttl")
        assert TraceHop._field_defaults == {
            "rtt_ms": 0.0, "quoted_stack": (), "quoted_ttl": 1}

    def test_pickle_round_trip(self):
        for hop in [self.hop(), TraceHop(7, None), TraceHop(1, 5, 0.5)]:
            back = pickle.loads(pickle.dumps(hop))
            assert back == hop
            assert type(back) is TraceHop

    def test_keywords_defaults_and_tuple_protocol(self):
        hop = TraceHop(probe_ttl=1, address=None)
        assert (hop.rtt_ms, hop.quoted_stack, hop.quoted_ttl) == \
            (0.0, (), 1)
        assert self.hop() == self.hop()
        # The hash of the field tuple, as the frozen dataclass had.
        assert hash(self.hop()) == hash(
            (3, 1234, 1.5, self.hop().quoted_stack, 2))
        assert repr(hop) == ("TraceHop(probe_ttl=1, address=None, "
                             "rtt_ms=0.0, quoted_stack=(), quoted_ttl=1)")
        moved = self.hop()._replace(address=9)
        assert moved.address == 9 and moved.quoted_ttl == 2
        assert not hasattr(hop, "__dict__")

    def test_make_hop_builds_the_same_hop(self):
        made = make_hop((3, 1234, 1.5, self.hop().quoted_stack, 2))
        assert type(made) is TraceHop
        assert made == self.hop()
        assert (made.labels, made.has_labels, made.is_anonymous) == \
            ((100,), True, False)
        assert str(made) == str(self.hop())

    def test_still_frozen(self):
        with pytest.raises(AttributeError):
            self.hop().address = 5


class Trickle:
    """A stream whose ``read`` returns at most 7 bytes, so records
    straddle every refill of the reader's buffer."""

    def __init__(self, data):
        self._inner = io.BytesIO(data)
        self.reads = 0

    def read(self, count=-1):
        self.reads += 1
        return self._inner.read(7 if count < 0 else min(count, 7))


def _many_traces(count):
    return [labeled_trace(f"mon-{index % 5}",
                          [None, 100 + index % 3, None, 200])
            if index % 2 else sample_trace(f"mon-{index}",
                                           hop_count=1 + index % 9)
            for index in range(count)]


class TestFraming:
    """Records frame off one buffer refilled by chunk: where the
    chunk borders fall never changes what is decoded or skipped."""

    def test_strict_read_through_trickle(self):
        traces = _many_traces(40)
        stream = Trickle(archive_bytes(traces))
        decoded = list(WartsReader(stream))
        assert len(decoded) == len(traces)
        assert all(traces_equal(a, b) for a, b in zip(decoded, traces))
        assert stream.reads > len(traces)  # records did straddle reads

    def test_strict_errors_through_trickle(self):
        data = archive_bytes(_many_traces(5))
        with pytest.raises(WartsError, match="truncated record body"):
            list(WartsReader(Trickle(data[:-3])))
        header = MAGIC + struct.pack("!H", VERSION)
        with pytest.raises(WartsError, match="truncated record length"):
            list(WartsReader(Trickle(header + b"\x00\x00")))
        with pytest.raises(WartsError, match="cap"):
            list(WartsReader(Trickle(
                header + struct.pack("!I", MAX_RECORD_LENGTH + 1))))

    def test_tolerant_read_through_trickle(self):
        good = _many_traces(6)
        header = MAGIC + struct.pack("!H", VERSION)
        bad_body = encode_trace(sample_trace())[:-1]
        data = (archive_bytes(good[:3])
                + struct.pack("!I", len(bad_body)) + bad_body
                + struct.pack("!I", 0xFFFFFFF0) + b"junk"
                + archive_bytes(good[3:])
                + struct.pack("!I", 50) + b"short")
        assert data.count(header) == 2
        for stream in (io.BytesIO(data), Trickle(data)):
            reader = WartsReader(stream, tolerant=True)
            decoded = list(reader)
            assert all(traces_equal(a, b) for a, b in zip(decoded, good))
            assert len(decoded) == len(good)
            assert reader.skipped == {"decode_error": 1,
                                      "oversized_length": 1,
                                      "truncated_body": 1}

    def test_records_straddle_chunk_borders(self):
        # Well over one 64 KiB chunk: plain and trickled reads agree.
        traces = _many_traces(3000)
        data = archive_bytes(traces)
        assert len(data) > 3 * (1 << 16)
        plain = list(WartsReader(io.BytesIO(data)))
        assert len(plain) == len(traces)
        assert all(traces_equal(a, b) for a, b in zip(plain, traces))
        assert all(traces_equal(a, b) for a, b in
                   zip(WartsReader(Trickle(data)), plain))

    def test_gz_archive_across_chunks(self, tmp_path):
        traces = _many_traces(3000)
        path = tmp_path / "big.rwts.gz"
        write_archive(path, traces)
        loaded = read_archive(path)
        assert len(loaded) == len(traces)
        assert all(traces_equal(a, b) for a, b in zip(loaded, traces))
        with gzip.GzipFile(fileobj=Trickle(path.read_bytes())) as stream:
            assert all(traces_equal(a, b) for a, b in
                       zip(WartsReader(stream), traces))


def reference_decode(body):
    """Field-by-field decode of one record body, written from the
    layout in :mod:`repro.warts.format` alone: the oracle the decoder's
    plain-hop fast path is held to, errors and their text included."""
    try:
        name_end = 1 + body[0]
        src, dst, timestamp, stop_code, hop_count = struct.unpack_from(
            "!IIdBH", body, name_end)
        monitor = body[1:name_end].decode("utf-8")
        if stop_code >= len(StopReason):
            raise WartsError(f"unknown stop reason code {stop_code}")
        offset = name_end + 19
        hops = []
        for _ in range(hop_count):
            probe_ttl, flags = struct.unpack_from("!BB", body, offset)
            offset += 2
            address, rtt_ms, quoted_ttl, stack = None, 0.0, 1, ()
            if flags & 0x01:
                address, rtt_ms, quoted_ttl = struct.unpack_from(
                    "!IfB", body, offset)
                offset += 9
            if flags & 0x02:
                (count,) = struct.unpack_from("!B", body, offset)
                words = struct.unpack_from(f"!{count}I", body,
                                           offset + 1)
                offset += 1 + 4 * count
                stack = tuple(LabelStackEntry.decode(word)
                              for word in words)
            hops.append(TraceHop(probe_ttl, address, rtt_ms, stack,
                                 quoted_ttl))
    except struct.error:
        raise WartsError("truncated record") from None
    except UnicodeDecodeError as exc:
        raise WartsError(f"monitor name is not utf-8: {exc}") from None
    if offset != len(body):
        raise WartsError(f"{len(body) - offset} trailing bytes in record")
    return Trace(monitor=monitor, src=src, dst=dst, timestamp=timestamp,
                 stop_reason=list(StopReason)[stop_code], hops=hops)


def reference_encode(trace):
    """Field-by-field encode of one record body, written from the
    layout in :mod:`repro.warts.format` alone: the oracle the encoder's
    plain-hop fast path is held to."""
    name = trace.monitor.encode("utf-8")
    parts = [struct.pack("!B", len(name)), name, struct.pack(
        "!IIdBH", trace.src, trace.dst, trace.timestamp,
        list(StopReason).index(trace.stop_reason), len(trace.hops))]
    for hop in trace.hops:
        responded = hop.address is not None
        parts.append(struct.pack(
            "!BB", hop.probe_ttl,
            (0x01 if responded else 0) | (0x02 if hop.quoted_stack else 0)))
        if responded:
            parts.append(struct.pack("!IfB", hop.address, hop.rtt_ms,
                                     hop.quoted_ttl))
        if hop.quoted_stack:
            parts.append(struct.pack("!B", len(hop.quoted_stack)))
            parts.extend(struct.pack("!I", entry.encode())
                         for entry in hop.quoted_stack)
    return b"".join(parts)


_TWO_LSES = (LabelStackEntry(17, tc=5, bottom=False, ttl=253),
             LabelStackEntry(42, bottom=True, ttl=253))

HOP_KINDS = {
    "plain": TraceHop(1, ip_to_int("10.0.0.1"), 0.75),
    "plain-qttl": TraceHop(2, ip_to_int("10.0.0.2"), 2.125, (), 3),
    "anonymous": TraceHop(3, None),
    "labelled": TraceHop(4, ip_to_int("10.0.0.4"), 4.5, _TWO_LSES[1:]),
    "labelled-qttl": TraceHop(5, ip_to_int("10.0.0.5"), 5.25,
                              _TWO_LSES, 2),
    "labelled-anonymous": TraceHop(6, None, 0.0, _TWO_LSES),
}


def hop_kinds_trace(hops=tuple(HOP_KINDS.values())):
    return Trace(monitor="mon-kinds", src=ip_to_int("192.0.2.9"),
                 dst=ip_to_int("203.0.113.77"), timestamp=86_400.5,
                 stop_reason=StopReason.GAP_LIMIT, hops=list(hops))


class TestHopEncode:
    """Plain hops (a reply quoting no labels) encode in one pack; every
    hop kind writes the bytes of a field-by-field encode."""

    @pytest.mark.parametrize("kind", sorted(HOP_KINDS))
    def test_each_hop_kind_matches_the_reference(self, kind):
        trace = hop_kinds_trace([HOP_KINDS[kind]])
        body = encode_trace(trace)
        assert body == reference_encode(trace)
        assert decode_trace(body) == trace

    def test_mixed_record_matches_the_reference(self):
        trace = hop_kinds_trace()
        assert encode_trace(trace) == reference_encode(trace)

    def test_archive_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "kinds.rwts"
        traces = [hop_kinds_trace(), sample_trace(), anonymous_trace(),
                  labeled_trace("mon-q", [100, None, 200])]
        assert write_archive(path, traces) == 4
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9746104d0c4773076892e1cf25912ce4"
            "383c4c7e6a4eb86520fdc0f4de6afafa")

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=255),
        st.one_of(st.none(), st.integers(min_value=0,
                                         max_value=0xFFFFFFFF)),
        st.floats(width=32),
        st.integers(min_value=0, max_value=255),
        st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                 max_size=3)), max_size=8))
    def test_random_hops_match_the_reference(self, hop_specs):
        hops = [TraceHop(ttl, address, rtt_ms if address is not None
                         else 0.0, tuple(
                             LabelStackEntry(
                                 label, bottom=(index == len(labels) - 1),
                                 ttl=ttl)
                             for index, label in enumerate(labels)),
                         quoted_ttl if address is not None else 1)
                for ttl, address, rtt_ms, quoted_ttl, labels in hop_specs]
        trace = hop_kinds_trace(hops)
        assert encode_trace(trace) == reference_encode(trace)


def decode_outcome(decode, body):
    """What a decoder makes of a body, comparable bit for bit (NaN
    rtts included): the trace's fields, or the WartsError text."""
    try:
        trace = decode(body)
    except WartsError as exc:
        return ("error", str(exc))
    return ("trace", trace.monitor, trace.src, trace.dst,
            struct.pack("!d", trace.timestamp), trace.stop_reason,
            [(hop.probe_ttl, hop.address, struct.pack("!f", hop.rtt_ms),
              tuple(entry.encode() for entry in hop.quoted_stack),
              hop.quoted_ttl) for hop in trace.hops])


def plain_last_trace():
    """A trace whose last hop is plain: responded, quoting no labels."""
    return labeled_trace("mon-p", [None, 100, None, None])


_EQUIVALENCE_BODIES = [
    encode_trace(trace) for trace in (
        sample_trace(), anonymous_trace(), plain_last_trace(),
        labeled_trace("mon-q", [100, None, 200]),
        sample_trace("mon-r", hop_count=6, with_labels=False))]


def with_flags(body, hop_index, flags):
    """``body`` with one hop's flag byte replaced (every hop before
    ``hop_index`` must be plain, 11 bytes)."""
    offset = 1 + body[0] + 19 + 11 * hop_index + 1
    return body[:offset] + bytes([flags]) + body[offset + 1:]


class TestPlainHopDecode:
    """Plain hops (flags exactly 0x01) decode in one unpack; every
    record decodes, or fails, exactly as field by field."""

    def test_plain_hop_last_in_record(self):
        trace = plain_last_trace()
        body = encode_trace(trace)
        decoded = decode_trace(body)
        assert decoded == trace
        assert decoded.hops[-1].quoted_stack == ()
        assert decode_outcome(decode_trace, body) == \
            decode_outcome(reference_decode, body)

    @pytest.mark.parametrize("cut", range(1, 12))
    def test_record_cut_inside_a_plain_hop(self, cut):
        body = encode_trace(plain_last_trace())[:-cut]
        with pytest.raises(WartsError, match="^truncated record$"):
            decode_trace(body)
        assert decode_outcome(decode_trace, body) == \
            decode_outcome(reference_decode, body)
        data = (MAGIC + struct.pack("!H", VERSION)
                + struct.pack("!I", len(body)) + body)
        reader = WartsReader(io.BytesIO(data), tolerant=True)
        assert list(reader) == []
        assert reader.skipped == {"decode_error": 1}

    @pytest.mark.parametrize("flags", [0x05, 0x81, 0x04, 0x80])
    def test_unknown_flag_bits_decode_field_by_field(self, flags):
        body = with_flags(encode_trace(
            sample_trace(hop_count=2, with_labels=False)), 1, flags)
        outcome = decode_outcome(decode_trace, body)
        assert outcome == decode_outcome(reference_decode, body)
        if flags & 0x01:
            # Unknown bits beside the responded bit change nothing.
            assert decode_trace(body) == sample_trace(
                hop_count=2, with_labels=False)
        else:
            # Read as anonymous, the hop leaves its reply unread.
            assert outcome == ("error", "9 trailing bytes in record")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_flipped_bytes_match_the_reference(self, data):
        body = bytearray(data.draw(st.sampled_from(_EQUIVALENCE_BODIES)))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            index = data.draw(st.integers(min_value=0,
                                          max_value=len(body) - 1))
            body[index] ^= data.draw(st.integers(min_value=1,
                                                 max_value=255))
        body = bytes(body)
        assert decode_outcome(decode_trace, body) == \
            decode_outcome(reference_decode, body)
