"""ICMP time-exceeded messages with RFC 4884/4950 MPLS extensions.

This is the wire mechanism that makes the whole study possible: when an
MPLS router drops a probe whose TTL expired, it sends an ICMP
``time-exceeded`` quoting the beginning of the dropped packet, and — if
it implements RFC 4950 — appends an *extension structure* (RFC 4884)
carrying an MPLS Label Stack object with the LSEs the packet wore.
Modified traceroutes parse that object; so does this module.

Layout implemented (big-endian throughout):

* ICMP header: type 11, code 0/1, checksum, unused(1) | length(1) |
  unused(2) — ``length`` counts 32-bit words of original datagram
  (RFC 4884 §4.1; zero when no extension follows);
* the quoted original datagram (at least 128 bytes, zero-padded, when
  an extension is appended — RFC 4884 §4.2);
* extension structure: version(4bits)=2, reserved, checksum, then
  objects: length(2) | class-num(1) | c-type(1) | payload;
* MPLS Label Stack object: class 1, c-type 1, payload = the LSEs
  (RFC 4950 §5).

The one-complement checksum is the standard Internet checksum and is
validated on parse.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..mpls.lse import LabelStack, LabelStackEntry

ICMP_TIME_EXCEEDED = 11
CODE_TTL_EXCEEDED = 0

EXTENSION_VERSION = 2
CLASS_MPLS_LABEL_STACK = 1
CTYPE_INCOMING_STACK = 1

# RFC 4884: with an extension present the original datagram field must
# be zero-padded to at least 128 bytes.
MIN_QUOTED_LENGTH = 128


class IcmpError(ValueError):
    """Raised on malformed ICMP messages."""


def internet_checksum(data: bytes) -> int:
    """RFC 1071 one's-complement checksum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass
class MplsExtensionObject:
    """The RFC 4950 MPLS Label Stack extension object."""

    stack: LabelStack

    def encode(self) -> bytes:
        payload = self.stack.to_bytes()
        header = struct.pack("!HBB", 4 + len(payload),
                             CLASS_MPLS_LABEL_STACK,
                             CTYPE_INCOMING_STACK)
        return header + payload

    @classmethod
    def decode(cls, data: bytes) -> Tuple["MplsExtensionObject", int]:
        """Parse one object; returns (object, bytes consumed)."""
        if len(data) < 4:
            raise IcmpError("truncated extension object header")
        length, class_num, c_type = struct.unpack("!HBB", data[:4])
        if length < 4 or length > len(data):
            raise IcmpError(f"bad extension object length {length}")
        if class_num != CLASS_MPLS_LABEL_STACK:
            raise IcmpError(f"unsupported object class {class_num}")
        if c_type != CTYPE_INCOMING_STACK:
            raise IcmpError(f"unsupported object c-type {c_type}")
        stack = LabelStack.from_bytes(data[4:length])
        return cls(stack=stack), length


@dataclass
class TimeExceeded:
    """An ICMP time-exceeded message, possibly with an MPLS extension.

    Attributes:
        quoted: the leading bytes of the dropped probe packet.
        stack: the MPLS label stack the probe carried when it died, or
            None when the replying router does not implement RFC 4950
            (or the probe was unlabeled).
        code: 0 = TTL exceeded in transit.
    """

    quoted: bytes
    stack: Optional[LabelStack] = None
    code: int = CODE_TTL_EXCEEDED

    def encode(self) -> bytes:
        """Serialize, computing both checksums."""
        if self.stack is not None and len(self.stack):
            quoted = self.quoted.ljust(MIN_QUOTED_LENGTH, b"\x00")
            if len(quoted) % 4:
                quoted += b"\x00" * (4 - len(quoted) % 4)
            extension = self._encode_extension()
            length_words = len(quoted) // 4
        else:
            quoted = self.quoted
            extension = b""
            length_words = 0
        header = struct.pack("!BBHBBH", ICMP_TIME_EXCEEDED, self.code,
                             0, 0, length_words, 0)
        body = header + quoted + extension
        checksum = internet_checksum(body)
        return body[:2] + struct.pack("!H", checksum) + body[4:]

    def _encode_extension(self) -> bytes:
        objects = MplsExtensionObject(self.stack).encode()
        header = struct.pack("!BBH", EXTENSION_VERSION << 4, 0, 0)
        checksum = internet_checksum(header + objects)
        header = header[:2] + struct.pack("!H", checksum)
        return header + objects

    @classmethod
    def decode(cls, data: bytes) -> "TimeExceeded":
        """Parse and validate a time-exceeded message."""
        if len(data) < 8:
            raise IcmpError("ICMP message shorter than its header")
        icmp_type, code, checksum, _unused, length_words, _unused2 = \
            struct.unpack("!BBHBBH", data[:8])
        if icmp_type != ICMP_TIME_EXCEEDED:
            raise IcmpError(f"not a time-exceeded message: {icmp_type}")
        if internet_checksum(data[:2] + b"\x00\x00" + data[4:]) \
                != checksum:
            raise IcmpError("ICMP checksum mismatch")
        if length_words == 0:
            # Compatibility mode: everything after the header is the
            # quoted datagram, no extension.
            return cls(quoted=data[8:], stack=None, code=code)
        quoted_end = 8 + length_words * 4
        if quoted_end > len(data):
            raise IcmpError("length field exceeds message size")
        quoted = data[8:quoted_end]
        stack = cls._decode_extension(data[quoted_end:])
        return cls(quoted=quoted, stack=stack, code=code)

    @staticmethod
    def _decode_extension(data: bytes) -> Optional[LabelStack]:
        if len(data) < 4:
            raise IcmpError("truncated extension structure")
        version_word, _reserved, checksum = struct.unpack("!BBH",
                                                          data[:4])
        if version_word >> 4 != EXTENSION_VERSION:
            raise IcmpError(
                f"unsupported extension version {version_word >> 4}")
        if internet_checksum(data[:2] + b"\x00\x00" + data[4:]) \
                != checksum:
            raise IcmpError("extension checksum mismatch")
        offset = 4
        stack: Optional[LabelStack] = None
        while offset < len(data):
            obj, consumed = MplsExtensionObject.decode(data[offset:])
            stack = obj.stack
            offset += consumed
        return stack

    @property
    def labels(self) -> Tuple[int, ...]:
        """Bare label values from the extension (empty if none)."""
        if self.stack is None:
            return ()
        return self.stack.labels()


def build_probe_quote(src: int, dst: int, probe_ttl: int) -> bytes:
    """A minimal quoted original datagram (IPv4 header + 8 bytes).

    Real routers quote the probe's IP header and first payload bytes;
    traceroute matches replies to probes through it.  We encode the
    fields the matching needs: src, dst, and the probe's original TTL
    recoverable from the identification field.
    """
    header = struct.pack(
        "!BBHHHBBHII",
        0x45,            # version 4, IHL 5
        0,               # DSCP/ECN
        28,              # total length (header + 8 payload bytes)
        probe_ttl,       # identification: traceroute encodes its TTL
        0,               # flags/fragment
        1,               # remaining TTL when dropped
        1,               # protocol: ICMP
        0,               # header checksum (not validated here)
        src, dst,
    )
    return header + struct.pack("!BBHI", 8, 0, 0, probe_ttl)
