"""JSON-lines codec for traces.

A human-readable sibling of the binary format: one JSON object per line.
Useful for eyeballing simulator output, diffing datasets, and feeding
external tools.  Round-trips exactly with :mod:`repro.warts.format`.
"""

from __future__ import annotations

import json
from typing import Iterator, List, TextIO

from ..mpls.lse import LabelStackEntry
from ..net.ip import int_to_ip, ip_to_int
from ..traces import StopReason, Trace, TraceHop


def trace_to_dict(trace: Trace) -> dict:
    """Convert a trace to a JSON-compatible dict (addresses dotted)."""
    return {
        "monitor": trace.monitor,
        "src": int_to_ip(trace.src),
        "dst": int_to_ip(trace.dst),
        "timestamp": trace.timestamp,
        "stop_reason": trace.stop_reason.value,
        "hops": [
            {
                "probe_ttl": hop.probe_ttl,
                "address": (int_to_ip(hop.address)
                            if hop.address is not None else None),
                "rtt_ms": round(hop.rtt_ms, 6),
                "quoted_ttl": hop.quoted_ttl,
                "mpls": [
                    {"label": e.label, "tc": e.tc,
                     "bottom": e.bottom, "ttl": e.ttl}
                    for e in hop.quoted_stack
                ],
            }
            for hop in trace.hops
        ],
    }


def trace_from_dict(data: dict) -> Trace:
    """Rebuild a trace from its dict form."""
    hops = [
        TraceHop(
            probe_ttl=hop["probe_ttl"],
            address=(ip_to_int(hop["address"])
                     if hop["address"] is not None else None),
            rtt_ms=hop["rtt_ms"],
            quoted_ttl=hop.get("quoted_ttl", 1),
            quoted_stack=tuple(
                LabelStackEntry(label=e["label"], tc=e["tc"],
                                bottom=e["bottom"], ttl=e["ttl"])
                for e in hop.get("mpls", [])
            ),
        )
        for hop in data["hops"]
    ]
    return Trace(
        monitor=data["monitor"],
        src=ip_to_int(data["src"]),
        dst=ip_to_int(data["dst"]),
        timestamp=data["timestamp"],
        stop_reason=StopReason(data["stop_reason"]),
        hops=hops,
    )


def dump_jsonl(traces, stream: TextIO) -> int:
    """Write traces as JSON lines; returns the number written."""
    count = 0
    for trace in traces:
        stream.write(json.dumps(trace_to_dict(trace), sort_keys=True))
        stream.write("\n")
        count += 1
    return count


def load_jsonl(stream: TextIO) -> Iterator[Trace]:
    """Yield traces from a JSON-lines stream, skipping blank lines."""
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            trace = trace_from_dict(json.loads(line))
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            # Wrong JSON types (a list, a null, a number for an address)
            # surface as TypeError/AttributeError deep in the decode.
            raise ValueError(
                f"bad trace on line {line_number}: {exc}") from exc
        yield trace


def read_jsonl(path) -> List[Trace]:
    """Read every trace from a JSON-lines file."""
    with open(path, "r", encoding="utf-8") as stream:
        return list(load_jsonl(stream))


def write_jsonl(path, traces) -> int:
    """Write traces to a JSON-lines file; returns the number written."""
    with open(path, "w", encoding="utf-8") as stream:
        return dump_jsonl(traces, stream)
