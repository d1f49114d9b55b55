"""End-to-end LPR driver: traces in, classified IOTPs out.

One :class:`LprPipeline` call per measurement cycle:

1. dataset statistics on the raw traces (Fig 5 inputs);
2. explicit-tunnel extraction (§2.3);
3. the five filters, using the cycle's follow-up snapshots for
   persistence (§3.1);
4. Algorithm-1 classification (§3.2).

:func:`persistence_sweep` re-runs the persistence stage for a whole range
of window sizes ``j`` over one month of snapshots (the Fig 6 study).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from ..net.ip2as import Ip2AsMapper
from ..obs import MetricsRegistry, delta_total, emit, get_registry, \
    span
from ..traces import Trace, gc_paused
from .classification import ClassificationResult, classify
from .extraction import MAX_EXPLICIT_LSE_TTL, complete_signatures, \
    extract_all
from .filters import FilterStats, run_filters
from .model import Iotp, IotpKey, LspSignature

_CYCLES_PROCESSED = get_registry().counter(
    "pipeline_cycles_total", "Measurement cycles run through LPR")


@dataclass
class DatasetStats:
    """Raw per-cycle dataset statistics, before any filtering (Fig 5)."""

    trace_count: int = 0
    traces_with_tunnels: int = 0
    mpls_addresses: int = 0
    non_mpls_addresses: int = 0
    mpls_by_as: Dict[int, int] = field(default_factory=dict)
    non_mpls_by_as: Dict[int, int] = field(default_factory=dict)

    @property
    def tunnel_trace_share(self) -> float:
        """Proportion of traces crossing >= 1 explicit tunnel (Fig 5a)."""
        if self.trace_count == 0:
            return 0.0
        return self.traces_with_tunnels / self.trace_count


def dataset_stats(traces: Sequence[Trace],
                  ip2as: Ip2AsMapper) -> DatasetStats:
    """Compute the Fig 5 / Table 2 raw statistics for one snapshot.

    An address counts as "used in MPLS" when it ever appears as a
    label-quoting hop; every other responding address is non-MPLS.
    The same per-trace pass counts the traces crossing an explicit
    tunnel (:func:`repro.core.extraction.traces_with_tunnels`), testing
    explicitness on the labeled hops alone.
    """
    mpls: Set[int] = set()
    every: Set[int] = set()
    with_tunnels = 0
    for trace in traces:
        hops = trace.hops
        every.update([hop.address for hop in hops
                      if hop.address is not None])
        labeled = [hop for hop in hops if hop.quoted_stack]
        if labeled:
            mpls.update([hop.address for hop in labeled
                         if hop.address is not None])
            with_tunnels += any(
                hop.quoted_stack[0].ttl <= MAX_EXPLICIT_LSE_TTL
                for hop in labeled)

    # One origin lookup per distinct address, feeding both histograms.
    mpls_by_as: Dict[int, int] = {}
    non_mpls_by_as: Dict[int, int] = {}
    for address in every:
        asn = ip2as.lookup_single(address)
        counts = mpls_by_as if address in mpls else non_mpls_by_as
        counts[asn] = counts.get(asn, 0) + 1

    return DatasetStats(
        trace_count=len(traces),
        traces_with_tunnels=with_tunnels,
        mpls_addresses=len(mpls),
        non_mpls_addresses=len(every) - len(mpls),
        mpls_by_as=mpls_by_as,
        non_mpls_by_as=non_mpls_by_as,
    )


@dataclass
class CycleResult:
    """Everything LPR produces for one measurement cycle."""

    cycle: int
    stats: DatasetStats
    filter_stats: FilterStats
    iotps: Dict[IotpKey, Iotp]
    classification: ClassificationResult
    metrics: Dict[str, Any] = field(default_factory=dict)
    """The result metrics recorded while LPR processed this cycle:
    the registry delta of :meth:`LprPipeline.process_snapshots`'
    window through :meth:`repro.obs.MetricsRegistry.results_only`
    (labels and values only, no execution metric).  Deterministic and
    layout-free, it is the cycle's one metrics payload: the
    ``cycle.metrics`` event carries it, a checkpoint persists it, and
    a restored cycle contributes exactly it to the registry."""

    def for_as(self, asn: int) -> ClassificationResult:
        """Classification restricted to one AS."""
        return self.classification.for_as(asn)


def follow_up_signatures(snapshots: Sequence[Sequence[Trace]],
                         window: int) -> List[Set[LspSignature]]:
    """Complete-LSP signature sets of the X+1..X+``window`` snapshots
    (``snapshots[0]`` is the primary X)."""
    return [complete_signatures(snapshot)
            for snapshot in snapshots[1:1 + window]]


class LprPipeline:
    """The complete Label Pattern Recognition pipeline."""

    def __init__(self, ip2as: Ip2AsMapper, persistence_window: int = 2,
                 reinject_threshold: float = 0.10,
                 php_heuristic: bool = False):
        """``persistence_window`` is the paper's ``j`` (default 2)."""
        if persistence_window < 0:
            raise ValueError(f"negative persistence window: "
                             f"{persistence_window}")
        self.ip2as = ip2as
        self.persistence_window = persistence_window
        self.reinject_threshold = reinject_threshold
        self.php_heuristic = php_heuristic

    def follow_up_signatures(
        self, snapshots: Sequence[Sequence[Trace]]
    ) -> List[Set[LspSignature]]:
        """Complete-LSP signature sets of the X+1..X+j snapshots."""
        return follow_up_signatures(snapshots, self.persistence_window)

    def process_snapshots(self, cycle: int,
                          snapshots: Sequence[Sequence[Trace]]
                          ) -> CycleResult:
        """Run LPR on a cycle given as [primary, follow-up...] traces."""
        if not snapshots:
            raise ValueError("need at least the primary snapshot")
        registry = get_registry()
        before = registry.snapshot()
        primary = snapshots[0]
        with gc_paused(), span("pipeline.cycle", cycle=cycle):
            with span("pipeline.extract"):
                lsps = extract_all(primary)
            with span("pipeline.follow_ups"):
                follow_ups = self.follow_up_signatures(snapshots)
            with span("pipeline.filters"):
                iotps, filter_stats = run_filters(
                    lsps, self.ip2as,
                    follow_up_signatures=follow_ups,
                    reinject_threshold=self.reinject_threshold,
                )
            with span("pipeline.dataset_stats"):
                stats = dataset_stats(primary, self.ip2as)
            with span("pipeline.classify"):
                classification = classify(iotps, self.php_heuristic)
        _CYCLES_PROCESSED.inc()
        window = registry.diff(before, registry.snapshot())
        # The IP2AS memo counters are execution telemetry: they travel
        # on this process's event, never in the result.
        emit("cycle.done", cycle=cycle, traces=stats.trace_count,
             extracted=filter_stats.extracted, iotps=len(iotps),
             ip2as_memo_hits=delta_total(
                 window, "ip2as_lookup_cache_hits_total"),
             ip2as_memo_misses=delta_total(
                 window, "ip2as_lookup_cache_misses_total"))
        return CycleResult(
            cycle=cycle,
            stats=stats,
            filter_stats=filter_stats,
            iotps=iotps,
            classification=classification,
            metrics=MetricsRegistry.results_only(window),
        )

    def process_cycle(self, cycle_data) -> CycleResult:
        """Run LPR on an :class:`repro.sim.ark.CycleData`."""
        return self.process_snapshots(cycle_data.cycle,
                                      cycle_data.snapshots)

    def process_run(self, run: Iterable) -> List[CycleResult]:
        """Run LPR over an iterable of cycle datasets."""
        return [self.process_cycle(cycle_data) for cycle_data in run]


@dataclass
class PersistencePoint:
    """One point of the Fig 6 sweep: the effect of window size j."""

    window: int
    kept_lsps: int
    classification: ClassificationResult


def persistence_sweep(snapshots: Sequence[Sequence[Trace]],
                      ip2as: Ip2AsMapper,
                      windows: Iterable[int],
                      reinject_threshold: float = 0.10
                      ) -> List[PersistencePoint]:
    """Vary the persistence window over one month of snapshots (Fig 6).

    ``snapshots[0]`` is the cycle under study; ``snapshots[1:]`` are the
    follow-up runs.  ``windows`` lists the j values to evaluate (0 = no
    persistence filtering).

    Extraction happens once per snapshot, not once per window: the
    primary's LSPs and each follow-up's complete-signature set are
    window-independent, so every sweep point reuses them and only the
    filter chain and classification re-run.  The filters never mutate
    their input LSPs (survivor lists are fresh, AS annotation copies),
    which is what makes the sharing sound.
    """
    if not snapshots:
        raise ValueError("need at least the primary snapshot")
    windows = list(windows)
    for window in windows:
        if window < 0:
            raise ValueError(f"negative persistence window: {window}")

    with span("pipeline.sweep", windows=len(windows)):
        with span("pipeline.extract"):
            lsps = extract_all(snapshots[0])
        widest = max(windows, default=0)
        with span("pipeline.follow_ups"):
            follow_ups = follow_up_signatures(snapshots, widest)
        points = []
        for window in windows:
            with span("pipeline.filters", window=window):
                iotps, stats = run_filters(
                    lsps, ip2as,
                    follow_up_signatures=follow_ups[:window],
                    reinject_threshold=reinject_threshold,
                )
            with span("pipeline.classify", window=window):
                classification = classify(iotps)
            points.append(PersistencePoint(
                window=window,
                kept_lsps=stats.after_persistence,
                classification=classification,
            ))
    return points
