"""Extraction of explicit MPLS tunnels from traceroute data.

The paper (§2.3) focuses on *explicit* tunnels: ttl-propagate makes the
LSRs appear in the trace, RFC 4950 makes them quote their label stacks.
Extraction therefore scans each trace for maximal runs of label-quoting
hops and records the surrounding context (ingress hop before, exit hop
after).

Anonymous hops need care: a '*' *inside* a run (labeled, silent, labeled)
is almost certainly an LSR that dropped the probe, so the run is kept as
one LSP but flagged incomplete — the paper's first filter then discards
it, exactly like its "Incomplete LSPs" row in Table 1.

Not every labeled hop belongs to an explicit tunnel: an *opaque* tunnel
(RFC 4950 without ttl-propagate) reveals one hop quoting an LSE whose
TTL is still near 255 — the probe's TTL was never copied into it.  Such
hops carry no per-LSR label sequence to classify, so extraction keeps
only hops whose quoted LSE-TTL shows genuine propagation
(:data:`MAX_EXPLICIT_LSE_TTL`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import get_registry, span
from ..traces import Trace, TraceHop
from .model import Lsp, LspHop, LspSignature

_LSPS_EXTRACTED = get_registry().counter(
    "lsps_extracted_total",
    "Explicit-tunnel LSP observations pulled out of traces")
_TRACES_SCANNED = get_registry().counter(
    "extraction_traces_scanned_total",
    "Traces scanned for explicit label runs")

# An explicit-tunnel LSR quotes the LSE-TTL the dying probe carried:
# 1 (or 0 on some implementations).  Anything larger means the LSE-TTL
# was initialized to 255 at the ingress — an opaque tunnel's signature.
MAX_EXPLICIT_LSE_TTL = 2


def is_explicit_hop(hop: TraceHop) -> bool:
    """True when a hop's quoted stack is explicit-tunnel evidence."""
    return (hop.has_labels
            and hop.quoted_stack[0].ttl <= MAX_EXPLICIT_LSE_TTL)


def explicit_runs(hops: Sequence[TraceHop]
                  ) -> Iterator[Tuple[int, int, int]]:
    """``(run_start, run_end, holes)`` per explicit run, in TTL order.

    The one scanner behind :func:`extract_lsps`, the follow-up
    signatures and :func:`traces_with_tunnels`.  ``run_end`` is the
    inclusive index of the run's last explicit hop; ``holes`` counts the
    anonymous hops absorbed inside it.  An anonymous hop joins a run
    only if explicit hops resume after it — otherwise it is context
    after the run.  Reads the hop fields directly: this loop visits
    every hop of every snapshot.
    """
    count = len(hops)
    index = 0
    while index < count:
        stack = hops[index].quoted_stack
        if not stack or stack[0].ttl > MAX_EXPLICIT_LSE_TTL:
            index += 1
            continue
        run_end = index
        probe = index + 1
        holes = 0
        pending_holes = 0
        while probe < count:
            hop = hops[probe]
            stack = hop.quoted_stack
            if stack and stack[0].ttl <= MAX_EXPLICIT_LSE_TTL:
                run_end = probe
                holes += pending_holes
                pending_holes = 0
            elif hop.address is None:
                # Possibly an LSR that did not reply; absorbed only if
                # labels resume afterwards.
                pending_holes += 1
            else:
                break
            probe += 1
        yield index, run_end, holes
        index = run_end + 1 + pending_holes


def _run_context(hops: Sequence[TraceHop], run_start: int,
                 run_end: int) -> Tuple[Optional[int], Optional[int]]:
    """Entry and exit addresses around a run (None when absent or
    anonymous)."""
    entry = hops[run_start - 1].address if run_start > 0 else None
    exit_ = hops[run_end + 1].address if run_end + 1 < len(hops) else None
    return entry, exit_


def _run_hops(hops: Sequence[TraceHop], run_start: int,
              run_end: int) -> Tuple[LspHop, ...]:
    """``(address, top label)`` of a run's explicit hops."""
    return tuple([(hop.address, hop.quoted_stack[0].label)
                  for hop in hops[run_start:run_end + 1]
                  if hop.quoted_stack
                  and hop.quoted_stack[0].ttl <= MAX_EXPLICIT_LSE_TTL])


def extract_lsps(trace: Trace) -> List[Lsp]:
    """All explicit-tunnel observations in one trace.

    Returns one :class:`Lsp` per labeled run.  A run is *incomplete* when
    it contains an anonymous hop, when the hop before or after the run is
    anonymous, or when the run touches either end of the trace (no
    context hop at all).
    """
    hops = trace.hops
    lsps: List[Lsp] = []
    for run_start, run_end, holes in explicit_runs(hops):
        entry, exit_ = _run_context(hops, run_start, run_end)
        lsps.append(Lsp(
            entry=entry,
            exit=exit_,
            hops=_run_hops(hops, run_start, run_end),
            complete=(holes == 0 and entry is not None
                      and exit_ is not None),
            monitor=trace.monitor,
            dst=trace.dst,
        ))
    return lsps


def _canonicalize(lsp: Lsp, table: dict) -> Lsp:
    """One Lsp with each field replaced by its first-seen equal object.

    Traces arriving from worker processes are value-identical to
    serially produced ones but lose cross-trace object sharing at
    pickle boundaries; interning the extracted values makes every
    downstream object graph — and hence checkpoint pickles — a pure
    function of the trace *values*, whatever worker layout produced
    them (DESIGN §8).  A run seen before is answered by one probe for
    its whole ``hops`` tuple, whose elements were interned when it was
    stored.
    """
    def intern(value):
        return table.setdefault(value, value)

    hops = table.get(lsp.hops)
    if hops is None:
        hops = intern(tuple(intern((intern(address), intern(label)))
                            for address, label in lsp.hops))
    return Lsp(
        entry=intern(lsp.entry),
        exit=intern(lsp.exit),
        hops=hops,
        complete=lsp.complete,
        monitor=intern(lsp.monitor),
        dst=intern(lsp.dst),
    )


def extract_all(traces: Iterable[Trace]) -> List[Lsp]:
    """Extract every explicit tunnel from a collection of traces."""
    lsps: List[Lsp] = []
    table: dict = {}
    with span("extraction.extract_all"):
        count = 0
        for trace in traces:
            lsps.extend(_canonicalize(lsp, table)
                        for lsp in extract_lsps(trace))
            count += 1
    _count_extraction(count, len(lsps),
                      sum(1 for lsp in lsps if lsp.complete))
    return lsps


def _count_extraction(traces: int, lsps: int, complete: int) -> None:
    _TRACES_SCANNED.inc(traces)
    _LSPS_EXTRACTED.inc(complete, complete="true")
    _LSPS_EXTRACTED.inc(lsps - complete, complete="false")


def complete_signatures(traces: Iterable[Trace]) -> Set[LspSignature]:
    """Signatures of the complete LSPs in a snapshot.

    Equal to ``{lsp.signature for lsp in extract_all(traces) if
    lsp.complete}`` and moves the extraction counters by the same
    amounts, but builds no :class:`Lsp` and interns nothing: the
    persistence filter only tests membership, so a follow-up snapshot
    needs signature tuples for complete runs alone.
    """
    signatures: Set[LspSignature] = set()
    scanned = runs = complete = 0
    for trace in traces:
        scanned += 1
        hops = trace.hops
        for run_start, run_end, holes in explicit_runs(hops):
            runs += 1
            if holes:
                continue
            entry, exit_ = _run_context(hops, run_start, run_end)
            if entry is not None and exit_ is not None:
                complete += 1
                signatures.add(
                    (entry, exit_, _run_hops(hops, run_start, run_end)))
    _count_extraction(scanned, runs, complete)
    return signatures


def traces_with_tunnels(traces: Iterable[Trace]) -> int:
    """How many traces traverse at least one explicit tunnel (Fig 5a)."""
    return sum(1 for trace in traces
               if next(explicit_runs(trace.hops), None) is not None)
