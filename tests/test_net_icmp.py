"""Unit tests for the ICMP time-exceeded / RFC 4950 wire codec."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.mpls.lse import LabelStack, MAX_LABEL
from repro.net.icmp import (
    IcmpError,
    MIN_QUOTED_LENGTH,
    MplsExtensionObject,
    TimeExceeded,
    build_probe_quote,
    internet_checksum,
)


class TestChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.binary(min_size=0, max_size=64).filter(
        lambda data: len(data) % 2 == 0))
    def test_message_with_inserted_checksum_verifies(self, data):
        """Appending the checksum word makes the total verify to zero
        (the receiver-side check), for word-aligned payloads."""
        checksum = internet_checksum(data)
        with_checksum = data + struct.pack("!H", checksum)
        assert internet_checksum(with_checksum) == 0


class TestProbeQuote:
    def test_round_trip(self):
        quote = build_probe_quote(src=111, dst=222, probe_ttl=7)
        # An IPv4 header plus 8 payload bytes; the identification field
        # carries the probe TTL, the addresses sit at offsets 12..20.
        assert len(quote) == 28
        assert quote[0] == 0x45
        assert struct.unpack("!H", quote[4:6]) == (7,)
        assert struct.unpack("!II", quote[12:20]) == (111, 222)
        decoded = TimeExceeded.decode(TimeExceeded(quoted=quote).encode())
        assert decoded.quoted == quote


class TestExtensionObject:
    def test_round_trip(self):
        stack = LabelStack.from_labels([300123, 17], ttl=1)
        encoded = MplsExtensionObject(stack).encode()
        decoded, consumed = MplsExtensionObject.decode(encoded)
        assert consumed == len(encoded)
        assert decoded.stack.labels() == (300123, 17)

    def test_rejects_unknown_class(self):
        encoded = bytearray(MplsExtensionObject(
            LabelStack.from_labels([5])).encode())
        encoded[2] = 99
        with pytest.raises(IcmpError, match="class"):
            MplsExtensionObject.decode(bytes(encoded))

    def test_rejects_truncation(self):
        encoded = MplsExtensionObject(
            LabelStack.from_labels([5])).encode()
        with pytest.raises(IcmpError):
            MplsExtensionObject.decode(encoded[:3])


class TestTimeExceeded:
    def test_plain_round_trip(self):
        quote = build_probe_quote(1, 2, 9)
        message = TimeExceeded(quoted=quote)
        decoded = TimeExceeded.decode(message.encode())
        assert decoded.stack is None
        assert decoded.labels == ()
        assert decoded.quoted == quote

    def test_mpls_round_trip(self):
        quote = build_probe_quote(1, 2, 9)
        stack = LabelStack.from_labels([301234], ttl=1)
        message = TimeExceeded(quoted=quote, stack=stack)
        decoded = TimeExceeded.decode(message.encode())
        assert decoded.labels == (301234,)
        # An extension pads the quote with zeros to 128 bytes.
        assert decoded.quoted == quote.ljust(MIN_QUOTED_LENGTH, b"\x00")

    def test_extension_pads_quote_to_128(self):
        quote = build_probe_quote(1, 2, 9)
        stack = LabelStack.from_labels([17])
        encoded = TimeExceeded(quoted=quote, stack=stack).encode()
        decoded = TimeExceeded.decode(encoded)
        assert len(decoded.quoted) >= MIN_QUOTED_LENGTH

    def test_stack_of_two(self):
        stack = LabelStack.from_labels([500, 600], ttl=3)
        message = TimeExceeded(quoted=build_probe_quote(1, 2, 3),
                               stack=stack)
        decoded = TimeExceeded.decode(message.encode())
        assert decoded.labels == (500, 600)
        assert decoded.stack[0].ttl == 3

    def test_checksum_validated(self):
        encoded = bytearray(
            TimeExceeded(quoted=build_probe_quote(1, 2, 3)).encode())
        encoded[-1] ^= 0xFF
        with pytest.raises(IcmpError, match="checksum"):
            TimeExceeded.decode(bytes(encoded))

    def test_extension_checksum_validated(self):
        stack = LabelStack.from_labels([17])
        encoded = bytearray(TimeExceeded(
            quoted=build_probe_quote(1, 2, 3), stack=stack).encode())
        # Corrupt the last byte (inside the extension) and refresh the
        # outer ICMP checksum so only the inner one fails.
        encoded[-1] ^= 0x01
        encoded[2:4] = b"\x00\x00"
        fixed = internet_checksum(bytes(encoded))
        encoded[2:4] = struct.pack("!H", fixed)
        with pytest.raises(IcmpError, match="checksum"):
            TimeExceeded.decode(bytes(encoded))

    def test_rejects_wrong_type(self):
        encoded = bytearray(
            TimeExceeded(quoted=build_probe_quote(1, 2, 3)).encode())
        encoded[0] = 3  # destination unreachable
        encoded[2:4] = b"\x00\x00"
        encoded[2:4] = struct.pack(
            "!H", internet_checksum(bytes(encoded)))
        with pytest.raises(IcmpError, match="time-exceeded"):
            TimeExceeded.decode(bytes(encoded))

    def test_rejects_short_message(self):
        with pytest.raises(IcmpError):
            TimeExceeded.decode(b"\x0b\x00")

    def test_empty_stack_treated_as_plain(self):
        message = TimeExceeded(quoted=build_probe_quote(1, 2, 3),
                               stack=LabelStack())
        decoded = TimeExceeded.decode(message.encode())
        assert decoded.stack is None

    @given(st.lists(st.integers(min_value=16, max_value=MAX_LABEL),
                    min_size=1, max_size=4),
           st.integers(min_value=1, max_value=255))
    def test_round_trip_property(self, labels, ttl):
        stack = LabelStack.from_labels(labels, ttl=1)
        quote = build_probe_quote(3, 4, ttl)
        message = TimeExceeded(quoted=quote, stack=stack)
        decoded = TimeExceeded.decode(message.encode())
        assert decoded.labels == tuple(labels)
        assert decoded.quoted == quote.ljust(MIN_QUOTED_LENGTH, b"\x00")
