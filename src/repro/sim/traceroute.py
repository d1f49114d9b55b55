"""Paris-traceroute engine over the simulated data plane.

Produces :class:`repro.traces.Trace` objects with the exact observable
semantics of ICMP-Paris traceroute against RFC 4950 routers:

* the flow key is held constant across the TTL sweep, so the probe follows
  one consistent ECMP branch (the Paris property);
* a router whose probe TTL expires replies from its incoming interface,
  quoting the received MPLS label stack if it implements RFC 4950;
* unresponsive routers appear as anonymous hops; after ``gap_limit``
  consecutive silent hops the trace is abandoned;
* transient per-probe loss is drawn deterministically from the engine
  seed, so a cycle's dataset is reproducible yet differs between cycles.

Per-probe loss and RTT jitter are ``flow_hash(seed, src, dst, ttl)`` and
``flow_hash(seed, 0x277, src, dst, ttl)``.  ``flow_hash`` is a left
fold (:func:`repro.igp.ecmp.fold`), so each trace folds its two flow
prefixes into hash states once, and :func:`repro.igp.ecmp.fold_ramp`
takes the last splitmix step for every TTL the sweep can reach in one
packed big-int pass per draw; the TTL sweep then only indexes into
the draws — the exact same values as hashing every probe from
scratch.

Each trace's first hop, the monitor's gateway, is a study-scoped
flyweight :class:`~repro.sim.dataplane.HopObs` in the
:class:`~repro.sim.network.DecisionCache`, like the destination host's
last hop.

The decoded quoted label stack is memoized per ``(labels, LSE-TTL)``
pair in the :class:`~repro.sim.network.DecisionCache`: the RFC
4884/4950 reply bytes depend only on the MPLS object (the quoted probe
datagram is skipped by the decoder), so every probe expiring with the
same stack, in any snapshot, decodes to the same tuple.  The memo has
two generations, the current probed cycle's ``stacks`` and the
previous one's ``stacks_prior``: a key is looked up in the current
table, then in the prior one (a hit there is copied forward), and only
when both miss does the stack take the real encode + decode round
trip, counted as a miss.  ``ArkSimulator.run_cycle`` ages the
generations, so a stack no probe quoted for a whole cycle is decoded
afresh when it is quoted again.  Both tables come from
``dataplane.decisions``, so when ``dataplane.memoize`` is off they
forget like the DataPlane's own and every stack is decoded afresh,
each counted as a miss.  The hit/miss counters are per engine and
flushed to :mod:`repro.obs` after each ``trace_all`` or single
``trace``.

``trace_all`` tallies probes, unanswered probes and traces per stop
reason locally and publishes each counter once per call (stop reasons
in first-seen order) — the same registry totals as counting per trace.

Under a real tracer clock (``repro study --profile``), ``trace_all``
splits its time into child spans ``sim.forward`` (the forwarding walk),
``sim.reply`` (loss, RTT and hop synthesis) and ``net.icmp_codec``
(quoted-stack encode + decode).  Under the default :class:`NullClock`
it reads no clock and records no children.
"""

from __future__ import annotations

from itertools import chain
from typing import List

from ..igp.ecmp import flow_hash, fold, fold_ramp
from ..mpls.lse import LabelStack, LabelStackEntry
from ..net.icmp import TimeExceeded, build_probe_quote
from ..obs import NullClock, Span, emit, get_registry, get_tracer
from ..traces import StopReason, Trace, TraceHop, make_hop
from .dataplane import (
    DataPlane,
    HopObs,
    UnreachableError,
    publish_cache_deltas,
)
from .monitors import Monitor

_LOSS_SCALE = float(1 << 64)
_RTT_SALT = 0x277

# Child spans of each ``sim.trace_all`` under a real clock, in the
# order of the engine's ``_spent`` accumulators.
_LAYERS = ("sim.forward", "sim.reply", "net.icmp_codec")

_PROBES = get_registry().counter(
    "probes_total", "Traceroute probes issued (one per TTL)")
_PROBES_UNANSWERED = get_registry().counter(
    "probes_unanswered_total",
    "Probes with no reply (loss or unresponsive router)")
_TRACES = get_registry().counter(
    "traces_total", "Traceroutes completed, by stop reason")
_STACK_HITS = get_registry().counter(
    "quoted_stack_cache_hits_total",
    "ICMP quoted-stack decodes served from the engine's cache",
    execution=True)
_STACK_MISSES = get_registry().counter(
    "quoted_stack_cache_misses_total",
    "ICMP quoted stacks encoded + decoded (first probe per stack)",
    execution=True)


class _Tally:
    """Probe and trace counts of one batch, published to the registry
    once: the same totals as counting every trace as it finishes."""

    __slots__ = ("probes", "unanswered", "answered", "stops")

    def __init__(self) -> None:
        self.probes = 0
        self.unanswered = 0
        self.answered = False  # any reachable trace (probes counted)
        self.stops: dict = {}  # stop reason -> traces, first-seen order

    def probed(self, probes: int, unanswered: int) -> None:
        self.probes += probes
        self.unanswered += unanswered
        self.answered = True

    def stopped(self, reason: str) -> None:
        self.stops[reason] = self.stops.get(reason, 0) + 1

    def publish(self) -> None:
        if self.answered:
            _PROBES.inc(self.probes)
            _PROBES_UNANSWERED.inc(self.unanswered)
        for reason, count in self.stops.items():
            _TRACES.inc(count, stop=reason)


class TracerouteEngine:
    """Issues simulated Paris traceroutes over one frozen network state."""

    def __init__(self, dataplane: DataPlane, seed: int = 0,
                 loss_rate: float = 0.01, gap_limit: int = 5,
                 max_ttl: int = 30):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate out of [0,1): {loss_rate}")
        # IP's TTL field is 8 bits, and a trace needs at least one probe.
        if not 1 <= max_ttl <= 255:
            raise ValueError(f"max_ttl out of [1,255]: {max_ttl}")
        if gap_limit < 1:
            raise ValueError(f"gap_limit must be >= 1, got {gap_limit}")
        self.dataplane = dataplane
        self.seed = seed
        # The hash state after the seed field, shared by every probe.
        self._seeded = flow_hash(seed)
        self.loss_rate = loss_rate
        self.gap_limit = gap_limit
        self.max_ttl = max_ttl
        self.stack_cache_hits = 0
        self.stack_cache_misses = 0
        self._flushed = [0, 0]
        # Profiling only: the tracer clock's ``now`` while a timed
        # ``trace_all`` runs (None otherwise), and the seconds spent
        # per layer of ``_LAYERS``.
        self._now = None
        self._spent = [0.0, 0.0, 0.0]

    def trace(self, monitor: Monitor, dst_addr: int,
              timestamp: float = 0.0) -> Trace:
        """Run one traceroute from a monitor towards a destination."""
        tally = _Tally()
        trace = self._trace(monitor, dst_addr, timestamp, tally)
        tally.publish()
        self.flush_cache_metrics()
        return trace

    def _trace(self, monitor: Monitor, dst_addr: int, timestamp: float,
               tally: "_Tally") -> Trace:
        now = self._now
        if now is not None:
            started = now()
        try:
            path = self.dataplane.forward_path(
                monitor.asn, monitor.attachment_router,
                monitor.src_addr, dst_addr,
            )
        except UnreachableError:
            if now is not None:
                self._spent[0] += now() - started
            tally.stopped(StopReason.UNREACHABLE.value)
            return Trace(monitor=monitor.name, src=monitor.src_addr,
                         dst=dst_addr, timestamp=timestamp,
                         stop_reason=StopReason.UNREACHABLE, hops=[])
        if now is not None:
            walked = now()
            self._spent[0] += walked - started
            codec_before = self._spent[2]

        # Per-trace hash states: hop ``ttl`` draws
        # flow_hash(seed, src, dst, ttl) for loss and
        # flow_hash(seed, 0x277, src, dst, ttl) for RTT, every TTL the
        # sweep can reach drawn in one packed pass.
        src = monitor.src_addr
        loss_rate = self.loss_rate
        reach = min(len(path) + 1, self.max_ttl)
        loss_draws = (fold_ramp(fold(self._seeded, src, dst_addr), reach)
                      if loss_rate > 0.0 else None)
        rtt_draws = fold_ramp(fold(self._seeded, _RTT_SALT, src, dst_addr),
                              reach)
        first_hop = self._gateway_hop(monitor)
        gap_limit = self.gap_limit
        hops: List[TraceHop] = []
        append = hops.append
        silent_streak = 0
        unanswered = 0
        stop = StopReason.TTL_EXHAUSTED
        for ttl, obs, rtt_draw in zip(range(1, reach + 1),
                                      chain((first_hop,), path),
                                      rtt_draws):
            if not obs.responsive or (
                    loss_draws is not None
                    and loss_draws[ttl - 1] / _LOSS_SCALE < loss_rate):
                append(make_hop((ttl, None, 0.0, (), 1)))
                unanswered += 1
                silent_streak += 1
                if silent_streak >= gap_limit:
                    stop = StopReason.GAP_LIMIT
                    break
                continue
            append(make_hop((
                ttl, obs.address,
                1.0 + 1.8 * ttl + rtt_draw % 4000 / 1000.0,
                (self._quoted_stack(monitor, dst_addr, ttl, obs)
                 if obs.labels and obs.quotes_labels else ()),
                obs.quoted_ttl)))
            silent_streak = 0
            if obs.router_id == -1:
                stop = StopReason.COMPLETED
                break
        tally.probed(len(hops), unanswered)
        tally.stopped(stop.value)
        trace = Trace(monitor=monitor.name, src=monitor.src_addr,
                      dst=dst_addr, timestamp=timestamp,
                      stop_reason=stop, hops=hops)
        if now is not None:
            self._spent[1] += (now() - walked
                               - (self._spent[2] - codec_before))
        return trace

    def trace_all(self, pairs, timestamp: float = 0.0) -> List[Trace]:
        """Trace every (monitor, destination) pair of an iterable."""
        tracer = get_tracer()
        with tracer.span("sim.trace_all") as node:
            clock = tracer.clock
            timed = not isinstance(clock, NullClock)
            if timed:
                self._now = clock.now
                self._spent = [0.0, 0.0, 0.0]
            tally = _Tally()
            try:
                traces = [self._trace(monitor, dst, timestamp, tally)
                          for monitor, dst in pairs]
            finally:
                self._now = None
                tally.publish()
            if timed:
                start = node.start
                for name, seconds in zip(_LAYERS, self._spent):
                    node.children.append(
                        Span(name=name, start=start, end=start + seconds))
                    start += seconds
            self.flush_cache_metrics()
            return traces

    def flush_cache_metrics(self) -> None:
        """Publish this engine's (and its dataplane's) cache counters.

        Deltas since the last flush; like the route/hop counters these
        are per-process observability and are stripped from persisted
        checkpoint deltas (DESIGN §8).  One combined ``cache.flush``
        event per non-empty flush goes to the flight recorder, with the
        per-layer deltas plus ``hits``/``misses`` totals — pool workers
        forward theirs to the parent bus, so serial and sharded runs
        report cache totals from these events alike.
        """
        deltas = publish_cache_deltas(self._flushed, (
            ("stack_hits", _STACK_HITS, self.stack_cache_hits),
            ("stack_misses", _STACK_MISSES, self.stack_cache_misses)),
            self.dataplane.flush_cache_metrics())
        hits = sum(value for name, value in deltas.items()
                   if name.endswith("_hits"))
        misses = sum(value for name, value in deltas.items()
                     if name.endswith("_misses"))
        if hits or misses:
            emit("cache.flush", hits=hits, misses=misses, **deltas)

    # -- internals -----------------------------------------------------------

    def _gateway_hop(self, monitor: Monitor) -> HopObs:
        """Traceroute's first hop, the monitor's gateway, as the
        study's flyweight (keyed by the ints it is built from, not by
        the monitor, whose dataclass hash runs in Python)."""
        cache = self.dataplane.decisions.gateway_hops
        key = (monitor.gateway_addr, monitor.asn,
               monitor.attachment_router)
        hop = cache.get(key)
        if hop is None:
            hop = cache[key] = HopObs(asn=monitor.asn,
                                      router_id=monitor.attachment_router,
                                      address=monitor.gateway_addr)
        return hop

    def _quoted_stack(self, monitor: Monitor, dst_addr: int, ttl: int,
                      obs: HopObs) -> tuple:
        """The label stack a labelled RFC 4950 hop's reply quotes:
        from this cycle's table, else copied forward from the previous
        cycle's, else decoded."""
        decisions = self.dataplane.decisions
        cache = decisions.stacks
        key = (obs.labels, obs.lse_ttl)
        stack = cache.get(key)
        if stack is not None:
            self.stack_cache_hits += 1
            return stack
        stack = decisions.stacks_prior.get(key)
        if stack is None:
            self.stack_cache_misses += 1
            stack = self._decode_stack(monitor, dst_addr, ttl, obs)
        else:
            self.stack_cache_hits += 1
        cache[key] = stack
        return stack

    def _decode_stack(self, monitor: Monitor, dst_addr: int, ttl: int,
                      obs: HopObs) -> tuple:
        """Encode + re-decode the ICMP time-exceeded reply.

        The RFC 4884 structure carries an RFC 4950 MPLS object; parsing
        it back is the byte path a real traceroute implementation
        takes.  The decoded stack is a pure function of ``(obs.labels,
        obs.lse_ttl)`` — the quoted probe datagram is skipped by the
        decoder — which is what makes the per-stack cache exact.
        """
        wire_stack = LabelStack([
            LabelStackEntry(
                label=label,
                tc=0,
                bottom=(index == len(obs.labels) - 1),
                ttl=obs.lse_ttl,  # LSE-TTL the expiring probe wore
            )
            for index, label in enumerate(obs.labels)
        ])
        now = self._now
        if now is not None:
            started = now()
        message = TimeExceeded(
            quoted=build_probe_quote(monitor.src_addr, dst_addr, ttl),
            stack=wire_stack,
        )
        stack = tuple(TimeExceeded.decode(message.encode()).stack)
        if now is not None:
            self._spent[2] += now() - started
        return stack
