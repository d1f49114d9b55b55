"""Tests for the live telemetry plane (DESIGN §12).

Covers the pure parts with unit tests — endpoint parsing, the health
monitor, the stall watchdog, resource sampling/folding, the transport-
free ``TelemetryServer.respond`` router — plus hypothesis properties
for heartbeat robustness (shuffled/duplicated beats must keep the
progress tracker monotone and the resource gauges order-independent),
one real-socket scrape, and the end-to-end watchdog drill: a worker
hung via the §8 fault hooks must flip ``/healthz`` to 503, emit
``shard.stalled`` then ``shard.recovered``, and the whole monitored run
must stay byte-identical to a bare serial one.
"""

import json
import pickle
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    EventBus,
    FakeClock,
    HealthMonitor,
    MetricsRegistry,
    ProgressTracker,
    StallWatchdog,
    TelemetryServer,
    absorb_resources,
    get_event_bus,
    parse_endpoint,
    sample_resources,
    set_event_bus,
)
from repro.obs.live import JSON_CONTENT_TYPE
from repro.obs.resources import CPU_GAUGE, GC_GAUGE, RSS_GAUGE
from repro.par import StudySpec
from repro.par.faults import HANG, FaultPlan, ShardFault
from repro.par.runner import run_study


class TestParseEndpoint:
    def test_bare_port_binds_loopback(self):
        assert parse_endpoint("9090") == ("127.0.0.1", 9090)

    def test_host_and_port(self):
        assert parse_endpoint("0.0.0.0:9464") == ("0.0.0.0", 9464)

    def test_port_zero_is_ephemeral(self):
        assert parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("text", ["", "host:", "host:abc",
                                      "notaport", "1.2.3.4:-1",
                                      "1.2.3.4:70000"])
    def test_bad_endpoints_raise(self, text):
        with pytest.raises(ValueError):
            parse_endpoint(text)


class TestHealthMonitor:
    def test_healthy_by_default_without_timeout(self):
        health = HealthMonitor(clock=FakeClock())
        assert health.healthy
        assert health.status()["status"] == "ok"

    def test_stall_and_clear(self):
        health = HealthMonitor(clock=FakeClock())
        health.stall(3)
        assert not health.healthy
        assert health.status()["stalled_shards"] == ["3"]
        health.clear(3)
        assert health.healthy

    def test_staleness_against_timeout(self):
        clock = FakeClock()
        health = HealthMonitor(stall_timeout=10.0, clock=clock)
        assert health.healthy
        clock.advance(11.0)
        assert not health.healthy  # no beat for > timeout
        health.beat()
        assert health.healthy

    def test_finish_freezes_healthy(self):
        clock = FakeClock()
        health = HealthMonitor(stall_timeout=1.0, clock=clock)
        health.stall(0)
        health.finish()
        clock.advance(1000.0)
        assert health.healthy  # done runs are not "stale"
        assert health.status()["finished"] is True

    def test_status_counts_beats(self):
        health = HealthMonitor(clock=FakeClock())
        health.beat()
        health.beat()
        assert health.status()["beats"] == 2

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            HealthMonitor(stall_timeout=0)


class TestStallWatchdog:
    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            StallWatchdog(0)

    def test_queued_shard_never_stalls(self):
        clock = FakeClock()
        watchdog = StallWatchdog(1.0, clock=clock)
        watchdog.watch(0)  # registered but never beat: still queued
        clock.advance(100.0)
        assert watchdog.check() == []

    def test_deadline_arms_at_first_beat(self):
        clock = FakeClock()
        watchdog = StallWatchdog(1.0, clock=clock)
        watchdog.watch(0)
        watchdog.beat(0)
        clock.advance(0.5)
        assert watchdog.check() == []
        clock.advance(1.0)
        assert watchdog.check() == [0]
        assert watchdog.stalled == {0}
        assert watchdog.check() == []  # reported once, not repeatedly

    def test_late_beat_recovers(self):
        clock = FakeClock()
        watchdog = StallWatchdog(1.0, clock=clock)
        watchdog.watch(0)
        watchdog.beat(0)
        clock.advance(2.0)
        assert watchdog.check() == [0]
        assert watchdog.beat(0) is True  # recovery signalled once
        assert watchdog.stalled == frozenset()
        assert watchdog.beat(0) is False

    def test_clear_reports_whether_flagged(self):
        clock = FakeClock()
        watchdog = StallWatchdog(1.0, clock=clock)
        watchdog.watch(0)
        watchdog.watch(1)
        watchdog.beat(0)
        clock.advance(2.0)
        watchdog.check()
        assert watchdog.clear(0) is True
        assert watchdog.clear(1) is False
        clock.advance(10.0)
        assert watchdog.check() == []  # cleared shards are forgotten

    def test_unwatched_beat_is_ignored(self):
        watchdog = StallWatchdog(1.0, clock=FakeClock())
        assert watchdog.beat(99) is False
        assert watchdog.check() == []


class TestResourceSampling:
    def test_sample_shape(self):
        sample = sample_resources()
        assert sample["rss_bytes"] > 0
        assert sample["cpu_user_s"] >= 0.0
        assert sample["cpu_sys_s"] >= 0.0
        assert all(count >= 0 for count in sample["gc_collections"])

    def test_absorb_sets_labelled_gauges(self):
        registry = MetricsRegistry()
        absorb_resources(7, {"rss_bytes": 1000, "cpu_user_s": 2.0,
                             "cpu_sys_s": 0.5,
                             "gc_collections": [4, 2, 1]},
                         registry)
        assert registry.gauge(RSS_GAUGE).value(shard="7") == 1000
        assert registry.gauge(CPU_GAUGE).value(
            shard="7", mode="user") == 2.0
        assert registry.gauge(CPU_GAUGE).value(
            shard="7", mode="sys") == 0.5
        assert registry.gauge(GC_GAUGE).value(
            shard="7", gen="2") == 1

    def test_fold_is_monotone(self):
        registry = MetricsRegistry()
        absorb_resources(0, {"rss_bytes": 2000}, registry)
        absorb_resources(0, {"rss_bytes": 1000}, registry)  # stale
        assert registry.gauge(RSS_GAUGE).value(shard="0") == 2000

    def test_duplicate_absorption_is_idempotent(self):
        sample = {"rss_bytes": 5000, "cpu_user_s": 1.5,
                  "cpu_sys_s": 0.25, "gc_collections": [9]}
        once = MetricsRegistry()
        absorb_resources(0, sample, once)
        thrice = MetricsRegistry()
        for _ in range(3):
            absorb_resources(0, sample, thrice)
        assert once.snapshot() == thrice.snapshot()


# A small pool of shard heartbeats the robustness properties permute:
# 3 shards x 2 cycles each, totals 6 cycles.
_BEAT = st.tuples(st.sampled_from([0, 1, 2]),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=500))


class TestHeartbeatRobustness:
    """Shuffled, duplicated, out-of-order heartbeats must not corrupt
    the tracker or the resource gauges (DESIGN §12)."""

    @staticmethod
    def _tracker():
        tracker = ProgressTracker(6)
        for shard in (0, 1, 2):
            tracker.add_shard(shard, 2.0)
        return tracker

    @given(beats=st.lists(_BEAT, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_tracker_is_monotone_and_order_independent(self, beats):
        tracker = self._tracker()
        seen = 0.0
        for shard, cycles_done, traces in beats:
            tracker.heartbeat(shard, cycles_done=cycles_done,
                              traces=traces)
            assert tracker.work_done >= seen  # never moves backwards
            seen = tracker.work_done

        # Any delivery order folds to the same final state.
        replay = self._tracker()
        for shard, cycles_done, traces in sorted(beats):
            replay.heartbeat(shard, cycles_done=cycles_done,
                             traces=traces)
        assert replay.work_done == tracker.work_done
        assert replay.snapshot()["shards"] == \
            tracker.snapshot()["shards"]

    @given(beats=st.lists(_BEAT, min_size=1, max_size=40),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_resource_gauges_are_order_independent(self, beats, data):
        samples = [(shard, {"rss_bytes": cycles * 1000 + traces,
                            "cpu_user_s": float(cycles),
                            "cpu_sys_s": 0.0,
                            "gc_collections": [traces]})
                   for shard, cycles, traces in beats]
        shuffled = data.draw(st.permutations(samples))

        ordered, permuted = MetricsRegistry(), MetricsRegistry()
        for shard, sample in samples:
            absorb_resources(shard, sample, ordered)
        for shard, sample in shuffled:
            # Duplicates on top of permutation: absorb twice.
            absorb_resources(shard, sample, permuted)
            absorb_resources(shard, sample, permuted)
        assert ordered.snapshot() == permuted.snapshot()


class TestTelemetryServerRouting:
    """Transport-free checks against TelemetryServer.respond."""

    def build(self):
        registry = MetricsRegistry()
        registry.counter("par_shards_total",
                         "Shards dispatched").inc(4)
        bus = EventBus()
        for cycle in range(5):
            bus.emit("cycle.done", cycle=cycle + 1)
        health = HealthMonitor(clock=FakeClock())
        return TelemetryServer(registry=registry, bus=bus,
                               health=health)

    def test_metrics_serves_prometheus_text(self):
        status, content_type, body = self.build().respond("/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE par_shards_total counter" in text
        assert "par_shards_total 4" in text

    def test_healthz_flips_with_the_monitor(self):
        server = self.build()
        status, content_type, body = server.respond("/healthz")
        assert (status, content_type) == (200, JSON_CONTENT_TYPE)
        assert json.loads(body)["status"] == "ok"
        server.health.stall(2)
        status, _, body = server.respond("/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "stalled"
        assert payload["stalled_shards"] == ["2"]

    def test_progress_without_tracker(self):
        status, _, body = self.build().respond("/progress")
        assert status == 200
        assert json.loads(body) == {"active": False, "eta": None}

    def test_progress_serves_tracker_snapshot(self):
        server = self.build()
        clock = FakeClock()
        tracker = ProgressTracker(4, clock=clock)
        tracker.add_shard(0, 4.0)
        clock.advance(10.0)
        bus = EventBus()
        bus.subscribe(tracker.on_event)
        bus.subscribe(server.health.on_event)
        bus.emit("shard.heartbeat", shard=0, cycles_done=2, traces=42)
        server.set_tracker(tracker)
        status, _, body = server.respond("/progress")
        payload = json.loads(body)
        assert status == 200
        assert payload["work_done"] == 2.0
        assert payload["eta"] == pytest.approx(10.0)
        assert payload["traces"] == 42
        assert server.health.status()["beats"] == 1

    def test_events_tail(self):
        status, _, body = self.build().respond("/events?n=2")
        payload = json.loads(body)
        assert status == 200
        assert payload["count"] == 2
        assert [e["seq"] for e in payload["events"]] == [4, 5]

    def test_events_default_tail_and_bad_n(self):
        server = self.build()
        _, _, body = server.respond("/events")
        assert json.loads(body)["count"] == 5
        status, _, _ = server.respond("/events?n=wat")
        assert status == 400

    def test_unknown_path_404s(self):
        status, _, _ = self.build().respond("/nope")
        assert status == 404

    def test_trailing_slash_routes(self):
        status, _, _ = self.build().respond("/healthz/")
        assert status == 200

    def test_real_socket_round_trip(self):
        with self.build() as server:
            assert server.port != 0  # ephemeral port was bound
            with urllib.request.urlopen(f"{server.url}/metrics",
                                        timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == \
                    PROMETHEUS_CONTENT_TYPE
                assert b"par_shards_total 4" in response.read()


SPEC = StudySpec(scale=0.05, seed=2015, cycles=2,
                 snapshots_per_cycle=2)


@pytest.fixture(scope="module")
def drill():
    """One parallel run with a hung worker under full telemetry.

    Shard of cycle 1 goes silent for 1.5 s against a 0.4 s deadline,
    then resumes; a poller thread watches /healthz throughout.
    """
    saved_bus = get_event_bus()
    bus = EventBus()
    set_event_bus(bus)
    health = HealthMonitor()
    bus.subscribe(health.on_event)
    server = TelemetryServer(health=health)
    codes = []
    done = threading.Event()

    def poll():
        while not done.is_set():
            codes.append(server.respond("/healthz")[0])
            time.sleep(0.02)

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    try:
        run = run_study(
            SPEC, workers=2,
            fault_plan=FaultPlan({1: ShardFault(
                kind=HANG, hang_seconds=1.5)}),
            stall_timeout=0.4,
            resources=True)
    finally:
        done.set()
        poller.join(timeout=5)
        set_event_bus(saved_bus)
    bare = run_study(SPEC)
    return {"run": run, "bare": bare, "codes": codes,
            "events": list(bus.events), "server": server}


class TestWatchdogDrill:
    def test_stall_then_recovery_events(self, drill):
        kinds = [event.kind for event in drill["events"]]
        assert "shard.stalled" in kinds
        assert "shard.recovered" in kinds
        assert kinds.index("shard.stalled") < \
            kinds.index("shard.recovered")
        assert kinds[-1] == "study.done"
        stalled = [e for e in drill["events"]
                   if e.kind == "shard.stalled"]
        assert stalled[0].fields["timeout"] == 0.4

    def test_healthz_went_503_and_recovered(self, drill):
        assert 503 in drill["codes"]  # mid-run stall was visible
        assert drill["codes"][0] == 200
        status, _, body = drill["server"].respond("/healthz")
        assert status == 200  # healthy again after the run
        assert json.loads(body)["finished"] is True

    def test_worker_resources_events_flow(self, drill):
        samples = [e for e in drill["events"]
                   if e.kind == "worker.resources"]
        shards = {e.fields["shard"] for e in samples}
        assert {0, 1, "parent"} <= shards
        assert all(e.fields["rss_bytes"] > 0 for e in samples)

    def test_monitored_run_is_identical_to_bare(self, drill):
        # Equality over every field, including per-cycle metrics deltas
        # — no worker_* gauge or stall counter may leak in.  (Byte-level
        # identity is asserted on checkpoint files below: pickle bytes
        # of in-memory results differ across process boundaries only by
        # memoised object sharing, not content.)
        run, bare = drill["run"], drill["bare"]
        assert len(run.results) == len(bare.results)
        for mine, ref in zip(run.results, bare.results):
            assert mine == ref
            assert list(mine.metrics) == list(ref.metrics)


class TestSerialTelemetryIdentity:
    def test_checkpoints_byte_identical_with_telemetry_on(self, tmp_path):
        bare_dir = tmp_path / "bare"
        live_dir = tmp_path / "live"
        bare = run_study(SPEC, checkpoint_dir=bare_dir)
        health = HealthMonitor()
        unsubscribe = get_event_bus().subscribe(health.on_event)
        try:
            live = run_study(SPEC, checkpoint_dir=live_dir,
                             resources=True)
        finally:
            unsubscribe()
        for mine, ref in zip(live.results, bare.results):
            assert pickle.dumps(mine) == pickle.dumps(ref)
        bare_files = sorted(p.relative_to(bare_dir)
                            for p in bare_dir.rglob("*.ckpt"))
        live_files = sorted(p.relative_to(live_dir)
                            for p in live_dir.rglob("*.ckpt"))
        assert bare_files == live_files and bare_files
        for name in bare_files:
            assert (live_dir / name).read_bytes() == \
                (bare_dir / name).read_bytes()
        assert health.healthy
