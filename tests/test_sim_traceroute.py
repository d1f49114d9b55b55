"""Unit tests for the Paris-traceroute engine and monitors."""

import pickle

import pytest

from repro.igp.ecmp import flow_hash
from repro.mpls.lse import LabelStack, LabelStackEntry
from repro.net.icmp import TimeExceeded, build_probe_quote
from repro.obs import (
    EventBus,
    FakeClock,
    NullClock,
    Tracer,
    get_registry,
    get_tracer,
    set_event_bus,
    set_tracer,
)
from repro.sim.dataplane import DataPlane, HopObs, UnreachableError
from repro.sim.monitors import build_monitors, split_into_teams
from repro.sim.traceroute import TracerouteEngine
from repro.traces import StopReason, Trace, TraceHop

from test_sim_dataplane import (
    DST_AS,
    SRC_AS,
    TRANSIT,
    a_destination,
    build,
)
from repro.sim.config import MplsPolicy


def engine_and_monitor(internet, **engine_kwargs):
    monitors = build_monitors(internet, per_as=2)
    engine = TracerouteEngine(DataPlane(internet), **engine_kwargs)
    return engine, monitors[0]


class TestMonitors:
    def test_monitors_built_per_as(self):
        internet = build()
        monitors = build_monitors(internet, per_as=3)
        assert len(monitors) == 3
        assert all(m.asn == SRC_AS for m in monitors)

    def test_monitor_addresses_resolve_to_host_as(self):
        internet = build()
        for monitor in build_monitors(internet):
            assert internet.ip2as.lookup_single(monitor.src_addr) \
                == monitor.asn
            assert internet.ip2as.lookup_single(monitor.gateway_addr) \
                == monitor.asn

    def test_teams_round_robin(self):
        internet = build()
        monitors = build_monitors(internet, per_as=4)
        teams = split_into_teams(monitors, 3)
        assert [len(team) for team in teams] == [2, 1, 1]

    def test_teams_drop_empty(self):
        internet = build()
        monitors = build_monitors(internet, per_as=1)
        assert len(split_into_teams(monitors, 5)) == 1

    def test_team_count_validation(self):
        with pytest.raises(ValueError):
            split_into_teams([], 0)


class TestTraceroute:
    def test_completed_trace(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        dst = a_destination(internet)
        trace = engine.trace(monitor, dst, timestamp=5.0)
        assert trace.stop_reason is StopReason.COMPLETED
        assert trace.hops[-1].address == dst
        assert trace.timestamp == 5.0
        assert trace.monitor == monitor.name

    def test_first_hop_is_gateway(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        assert trace.hops[0].address == monitor.gateway_addr
        assert trace.hops[0].probe_ttl == 1

    def test_probe_ttls_monotone(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        ttls = [hop.probe_ttl for hop in trace.hops]
        assert ttls == list(range(1, len(ttls) + 1))

    def test_rtts_grow_roughly_with_ttl(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        rtts = [hop.rtt_ms for hop in trace.responsive_hops]
        assert rtts[-1] > rtts[0]

    def test_mpls_hops_quote_stacks(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        trace = engine.trace(monitor, a_destination(internet))
        assert trace.has_mpls
        labelled = [hop for hop in trace.hops if hop.has_labels]
        for hop in labelled:
            assert hop.quoted_stack[-1].bottom
            assert hop.quoted_stack[0].ttl == 1

    def test_determinism(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        dst = a_destination(internet)
        engine_a, monitor = engine_and_monitor(internet, seed=9)
        engine_b, _ = engine_and_monitor(internet, seed=9)
        assert engine_a.trace(monitor, dst).hops \
            == engine_b.trace(monitor, dst).hops

    def test_loss_seed_changes_anonymity(self):
        internet = build()
        dst = a_destination(internet)
        traces = []
        for seed in range(30):
            engine, monitor = engine_and_monitor(
                internet, seed=seed, loss_rate=0.3)
            traces.append(engine.trace(monitor, dst))
        anonymous = sum(
            1 for trace in traces
            for hop in trace.hops if hop.is_anonymous
        )
        assert anonymous > 0

    def test_gap_limit_stops_trace(self):
        internet = build()
        dst = a_destination(internet)
        engine, monitor = engine_and_monitor(
            internet, loss_rate=0.97, gap_limit=3, seed=1)
        trace = engine.trace(monitor, dst)
        assert trace.stop_reason in (StopReason.GAP_LIMIT,
                                     StopReason.COMPLETED)
        if trace.stop_reason is StopReason.GAP_LIMIT:
            assert all(hop.is_anonymous for hop in trace.hops[-3:])

    def test_unreachable_destination(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet)
        trace = engine.trace(monitor, 0xDEADBEEF)
        assert trace.stop_reason is StopReason.UNREACHABLE
        assert trace.hops == []

    def test_max_ttl_truncates(self):
        internet = build(transit_routers=12)
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        engine.max_ttl = 3
        trace = engine.trace(monitor, a_destination(internet))
        assert trace.stop_reason is StopReason.TTL_EXHAUSTED
        assert len(trace.hops) == 3

    def test_trace_all(self):
        internet = build()
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        dests = [address for address, _ in
                 internet.destination_addresses()]
        traces = engine.trace_all((monitor, d) for d in dests)
        assert len(traces) == len(dests)

    def test_invalid_loss_rate(self):
        internet = build()
        with pytest.raises(ValueError):
            TracerouteEngine(DataPlane(internet), loss_rate=1.0)

    @pytest.mark.parametrize("max_ttl", [0, -3, 256, 400])
    def test_max_ttl_outside_ip_ttl_range_rejected(self, max_ttl):
        internet = build()
        with pytest.raises(ValueError, match="max_ttl"):
            TracerouteEngine(DataPlane(internet), max_ttl=max_ttl)

    @pytest.mark.parametrize("gap_limit", [0, -1])
    def test_gap_limit_below_one_rejected(self, gap_limit):
        internet = build()
        with pytest.raises(ValueError, match="gap_limit"):
            TracerouteEngine(DataPlane(internet), gap_limit=gap_limit)

    def test_knob_edges_accepted(self):
        internet = build()
        dst = a_destination(internet)
        for max_ttl in (1, 255):
            engine, monitor = engine_and_monitor(
                internet, loss_rate=0.0, gap_limit=1, max_ttl=max_ttl)
            trace = engine.trace(monitor, dst)
            assert 1 <= len(trace.hops) <= max_ttl

    def test_lossy_trace_matches_per_probe_hashes(self):
        # Per-trace hash states must reproduce, hop for hop, the values
        # of hashing every probe from scratch:
        #   lost  <=> flow_hash(seed, src, dst, ttl) / 2**64 < loss_rate
        #   rtt    =  1.0 + 1.8*ttl
        #             + flow_hash(seed, 0x277, src, dst, ttl) % 4000 / 1000
        internet = build(MplsPolicy(enabled=True, ldp=True),
                         transit_routers=12)
        seed, loss_rate = 3, 0.3
        engine, monitor = engine_and_monitor(
            internet, seed=seed, loss_rate=loss_rate, gap_limit=99)
        dst = a_destination(internet)
        path = DataPlane(internet).forward_path(
            monitor.asn, monitor.attachment_router, monitor.src_addr, dst)
        src = monitor.src_addr
        expected = []
        for ttl, address in enumerate(
                [monitor.gateway_addr] + [obs.address for obs in path],
                start=1):
            if flow_hash(seed, src, dst, ttl) / float(2**64) < loss_rate:
                expected.append((ttl, None, 0.0))
            else:
                jitter = flow_hash(seed, 0x277, src, dst, ttl) \
                    % 4000 / 1000.0
                expected.append((ttl, address, 1.0 + 1.8 * ttl + jitter))
        trace = engine.trace(monitor, dst)
        assert [(hop.probe_ttl, hop.address, hop.rtt_ms)
                for hop in trace.hops] == expected
        # The pin covers both branches.
        assert any(hop.is_anonymous for hop in trace.hops)
        assert any(hop.has_labels for hop in trace.hops)


class _TickingClock(FakeClock):
    """Advances one millisecond per read."""

    def now(self):
        self.advance(0.001)
        return super().now()


class _CountingNullClock(NullClock):
    def __init__(self):
        self.reads = 0

    def now(self):
        self.reads += 1
        return super().now()


def _trace_all_under(clock):
    internet = build(MplsPolicy(enabled=True, ldp=True))
    engine, monitor = engine_and_monitor(internet, loss_rate=0.2)
    dests = [address for address, _ in internet.destination_addresses()]
    previous = get_tracer()
    tracer = set_tracer(Tracer(clock))
    try:
        traces = engine.trace_all([(monitor, d) for d in dests]
                                  + [(monitor, 0xDEADBEEF)])
    finally:
        set_tracer(previous)
    (node,) = tracer.roots
    return traces, node


class TestTraceAllProfileSplit:
    def test_children_split_the_parent_under_a_real_clock(self):
        traces, node = _trace_all_under(_TickingClock())
        assert node.name == "sim.trace_all"
        assert [child.name for child in node.children] == \
            ["sim.forward", "sim.reply", "net.icmp_codec"]
        assert all(child.duration > 0 for child in node.children)
        assert sum(child.duration for child in node.children) \
            <= node.duration
        assert any(trace.has_mpls for trace in traces)

    def test_null_clock_reads_no_extra_time(self):
        clock = _CountingNullClock()
        _traces, node = _trace_all_under(clock)
        assert node.children == []
        assert clock.reads == 2  # the span's own open and close

    def test_split_does_not_change_traces(self):
        timed, _ = _trace_all_under(_TickingClock())
        untimed, _ = _trace_all_under(NullClock())
        assert timed == untimed


def _fresh_decode(monitor, dst, ttl, labels, lse_ttl):
    """The quoted stack straight off a freshly encoded ICMP reply."""
    wire = LabelStack([
        LabelStackEntry(label=label, tc=0,
                        bottom=index == len(labels) - 1, ttl=lse_ttl)
        for index, label in enumerate(labels)])
    message = TimeExceeded(
        quoted=build_probe_quote(monitor.src_addr, dst, ttl), stack=wire)
    return tuple(TimeExceeded.decode(message.encode()).stack)


def _counter_delta(registry, before, name):
    payload = registry.diff(before, registry.snapshot()).get(name, {})
    return {tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in payload.get("values", [])}


_COUNTED = ("probes_total", "probes_unanswered_total", "traces_total")


class TestStudyScopedStackMemo:
    def test_memo_entries_equal_a_fresh_encode_and_decode(self):
        internet = build(MplsPolicy(enabled=True, ldp=True,
                                    te_pair_fraction=0.5,
                                    te_tunnels_per_pair=2),
                         transit_routers=12, ecmp=2)
        monitors = build_monitors(internet, per_as=2)
        dests = [address for address, _ in
                 internet.destination_addresses()]
        traces = []
        for era in range(4):
            engine = TracerouteEngine(DataPlane(internet, era=era),
                                      seed=era, loss_rate=0.0)
            traces += engine.trace_all(
                [(monitor, dst) for monitor in monitors for dst in dests])
        stacks = internet.decision_cache.stacks
        assert stacks
        quoted = {hop.quoted_stack for trace in traces
                  for hop in trace.hops if hop.quoted_stack}
        assert quoted <= set(stacks.values())
        for (labels, lse_ttl), stack in stacks.items():
            assert stack == _fresh_decode(monitors[0], dests[0], 7,
                                          labels, lse_ttl)

    def test_later_snapshots_hit_the_memo(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        dst = a_destination(internet)
        engine.trace(monitor, dst)
        assert engine.stack_cache_misses > 0
        later = TracerouteEngine(DataPlane(internet, era=1),
                                 loss_rate=0.0)
        assert later.trace(monitor, dst) == engine.trace(monitor, dst)
        assert (later.stack_cache_hits, later.stack_cache_misses) \
            == (engine.stack_cache_misses, 0)

    def test_unmemoized_engine_decodes_every_stack(self):
        internet = build(MplsPolicy(enabled=True, ldp=True))
        monitors = build_monitors(internet, per_as=2)
        dst = a_destination(internet)
        fresh = TracerouteEngine(DataPlane(internet, memoize=False),
                                 loss_rate=0.0)
        memoized = TracerouteEngine(DataPlane(internet), loss_rate=0.0)
        trace = fresh.trace(monitors[0], dst)
        assert trace == memoized.trace(monitors[0], dst)
        quoted = sum(1 for hop in trace.hops if hop.quoted_stack)
        assert quoted
        assert (fresh.stack_cache_hits, fresh.stack_cache_misses) \
            == (0, quoted)


def _per_probe_trace(engine, monitor, dst):
    """The engine's trace, every probe hashed from scratch.

    Loss is ``flow_hash(seed, src, dst, ttl)`` against the loss rate
    and RTT jitter ``flow_hash(seed, 0x277, src, dst, ttl)``, one call
    per probe, and every quoted stack a fresh ICMP encode + decode: the
    reference the packed per-trace draws must reproduce bit for bit.
    """
    src = monitor.src_addr
    try:
        path = engine.dataplane.forward_path(
            monitor.asn, monitor.attachment_router, src, dst)
    except UnreachableError:
        return Trace(monitor=monitor.name, src=src, dst=dst,
                     timestamp=0.0, stop_reason=StopReason.UNREACHABLE,
                     hops=[])
    first = HopObs(asn=monitor.asn, router_id=monitor.attachment_router,
                   address=monitor.gateway_addr)
    hops = []
    silent = 0
    stop = StopReason.TTL_EXHAUSTED
    for ttl, obs in enumerate([first] + list(path), start=1):
        if ttl > engine.max_ttl:
            break
        lost = engine.loss_rate > 0.0 and (
            flow_hash(engine.seed, src, dst, ttl) / float(1 << 64)
            < engine.loss_rate)
        if not obs.responsive or lost:
            hops.append(TraceHop(probe_ttl=ttl, address=None))
            silent += 1
            if silent >= engine.gap_limit:
                stop = StopReason.GAP_LIMIT
                break
            continue
        jitter = flow_hash(engine.seed, 0x277, src, dst, ttl)
        hops.append(TraceHop(
            probe_ttl=ttl,
            address=obs.address,
            rtt_ms=1.0 + 1.8 * ttl + jitter % 4000 / 1000.0,
            quoted_stack=(_fresh_decode(monitor, dst, ttl, obs.labels,
                                        obs.lse_ttl)
                          if obs.labels and obs.quotes_labels else ()),
            quoted_ttl=obs.quoted_ttl,
        ))
        silent = 0
        if obs.router_id == -1:
            stop = StopReason.COMPLETED
            break
    return Trace(monitor=monitor.name, src=src, dst=dst, timestamp=0.0,
                 stop_reason=stop, hops=hops)


def _pickled(traces):
    """Each trace header and each hop pickled on its own, so the bytes
    pin every field (float bits included) but not which objects the
    engine's memos happen to share."""
    return [(pickle.dumps((trace.monitor, trace.src, trace.dst,
                           trace.timestamp, trace.stop_reason)),
             [pickle.dumps(hop) for hop in trace.hops])
            for trace in traces]


class TestPackedDraws:
    """Per-trace packed loss/RTT draws equal per-probe hashing."""

    def _pin(self, **engine_kwargs):
        internet = build(MplsPolicy(enabled=True, ldp=True),
                         transit_routers=12)
        monitors = build_monitors(internet, per_as=3)
        dests = [address for address, _ in
                 internet.destination_addresses()] + [0xDEADBEEF]
        pairs = [(monitor, dst) for monitor in monitors
                 for dst in dests]
        traces = TracerouteEngine(DataPlane(internet),
                                  **engine_kwargs).trace_all(pairs)
        reference = TracerouteEngine(DataPlane(internet, memoize=False),
                                     **engine_kwargs)
        expected = [_per_probe_trace(reference, monitor, dst)
                    for monitor, dst in pairs]
        assert _pickled(traces) == _pickled(expected)
        assert any(hop.quoted_stack for trace in traces
                   for hop in trace.hops)
        return traces

    def test_max_ttl_shorter_than_the_path_under_loss(self):
        traces = self._pin(seed=3, loss_rate=0.3, max_ttl=6)
        assert any(trace.stop_reason is StopReason.TTL_EXHAUSTED
                   and len(trace.hops) == 6 for trace in traces)
        assert any(hop.is_anonymous for trace in traces
                   for hop in trace.hops)

    def test_lossless(self):
        traces = self._pin(seed=8, loss_rate=0.0)
        completed = [trace for trace in traces
                     if trace.stop_reason is StopReason.COMPLETED]
        assert completed
        assert not any(hop.is_anonymous for trace in completed
                       for hop in trace.hops)

    def test_gap_limit_stop(self):
        traces = self._pin(seed=5, loss_rate=0.6, gap_limit=2)
        assert any(trace.stop_reason is StopReason.GAP_LIMIT
                   for trace in traces)


class TestSingleTraceFlush:
    def test_trace_publishes_cache_counters_and_event(self):
        registry = get_registry()
        internet = build(MplsPolicy(enabled=True, ldp=True))
        engine, monitor = engine_and_monitor(internet, loss_rate=0.0)
        bus = EventBus()
        saved = set_event_bus(bus)
        try:
            before = registry.snapshot()
            engine.trace(monitor, a_destination(internet))
            delta = {name: sum(_counter_delta(registry, before,
                                              name).values())
                     for name in ("route_cache_misses_total",
                                  "hop_cache_misses_total",
                                  "quoted_stack_cache_misses_total")}
        finally:
            set_event_bus(saved)
        assert delta == {
            "route_cache_misses_total": engine.dataplane.route_cache.misses,
            "hop_cache_misses_total": engine.dataplane.hop_cache_misses,
            "quoted_stack_cache_misses_total": engine.stack_cache_misses}
        assert all(delta.values())
        events = [event for event in bus.events
                  if event.kind == "cache.flush"]
        assert len(events) == 1
        assert events[0].fields["misses"] == sum(delta.values())


class TestBatchedCounters:
    def _pairs(self, internet):
        monitors = build_monitors(internet, per_as=2)
        dests = [address for address, _ in
                 internet.destination_addresses()]
        # Unreachable destinations and heavy loss give every stop
        # reason, anonymous hops and zero-probe traces.
        return [(monitor, dst) for monitor in monitors
                for dst in dests + [0xDEADBEEF]]

    def test_trace_all_delta_equals_per_trace_counting(self):
        registry = get_registry()
        deltas = []
        for batched in (True, False):
            internet = build(MplsPolicy(enabled=True, ldp=True),
                             transit_routers=12)
            engine = TracerouteEngine(DataPlane(internet), seed=5,
                                      loss_rate=0.6, gap_limit=2)
            pairs = self._pairs(internet)
            before = registry.snapshot()
            if batched:
                traces = engine.trace_all(pairs)
            else:
                traces = [engine.trace(monitor, dst)
                          for monitor, dst in pairs]
            deltas.append({name: _counter_delta(registry, before, name)
                           for name in _COUNTED})
        assert deltas[0] == deltas[1]
        stops = {reason: sum(1 for trace in traces
                             if trace.stop_reason.value == reason)
                 for reason in {t.stop_reason.value for t in traces}}
        assert len(stops) >= 3
        assert deltas[0]["traces_total"] == {
            (("stop", reason),): count for reason, count in stops.items()}
        assert deltas[0]["probes_total"] == {
            (): sum(len(trace.hops) for trace in traces)}
        assert deltas[0]["probes_unanswered_total"] == {
            (): sum(hop.is_anonymous for trace in traces
                    for hop in trace.hops)}

    def test_all_unreachable_batch_counts_no_probes(self):
        registry = get_registry()
        internet = build()
        engine, monitor = engine_and_monitor(internet)
        before = registry.snapshot()
        engine.trace_all([(monitor, 0xDEADBEEF)] * 3)
        assert _counter_delta(registry, before, "probes_total") == {}
        assert _counter_delta(registry, before, "traces_total") == {
            (("stop", StopReason.UNREACHABLE.value),): 3}
