"""The event bus as the one channel for a run's facts.

Pool workers forward every event to the parent's bus, so the report,
the log sink, the progress tracker and the health monitor see serial
and sharded runs the same way:

* a sharded run's events file shows the workers' warm-start restores
  and ``cycle.done`` events;
* ``repro report``'s forwarding-cache totals equal the registry's
  cache counters, serial and sharded alike;
* the log sink prints forwarded worker events and survives a bus swap;
* tracker and health monitor driven only by events reproduce what the
  runner's direct calls used to build;
* a serial events file is byte-reproducible.
"""

import io
import json

import pytest

from repro.analysis.flightreport import flight_report, \
    flight_report_data
from repro.cli import _profile_table, main
from repro.obs import (
    EventBus,
    FakeClock,
    HealthMonitor,
    ProgressTracker,
    Span,
    Tracer,
    configure_logging,
    get_event_bus,
    get_registry,
    set_event_bus,
)
from repro.obs.log import level_of
from repro.par import StudySpec, run_study

SPEC = StudySpec(scale=0.25, seed=7, cycles=2, snapshots_per_cycle=2)

_CACHE_COUNTERS = ("route_cache", "hop_cache", "quoted_stack_cache")


def _recorded(path, **kwargs):
    """``run_study`` with an events sink at ``path``; returns the
    registry delta the run left behind."""
    registry = get_registry()
    before = registry.snapshot()
    saved = get_event_bus()
    bus = set_event_bus(EventBus(sink=path))
    try:
        run_study(SPEC, **kwargs)
    finally:
        bus.close()
        set_event_bus(saved)
    return registry.diff(before, registry.snapshot())


def _summed(delta, side):
    return sum(entry["value"]
               for prefix in _CACHE_COUNTERS
               for entry in delta.get(f"{prefix}_{side}_total",
                                      {}).get("values", []))


class TestWorkerEventsReachTheReport:
    def test_pool_warm_start_restore_is_reported(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        _recorded(events_path, workers=2, state_dir=tmp_path / "state",
                  snapshot_stride=1)
        data = flight_report_data(events_path)
        # The cycle-2 worker restored the cycle-1 snapshot.
        assert data["state_snapshots"]["restores"] >= 1
        assert "restores: 1" in flight_report(events_path)
        lines = [json.loads(line)
                 for line in events_path.read_text().splitlines()]
        assert sorted(line["cycle"] for line in lines
                      if line["kind"] == "cycle.done") == [1, 2]
        assert [line["seq"] for line in lines] == \
            list(range(1, len(lines) + 1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_forwarding_cache_totals_match_the_registry(self, tmp_path,
                                                        workers):
        events_path = tmp_path / "events.jsonl"
        delta = _recorded(events_path, workers=workers)
        caches = flight_report_data(events_path)["caches"]["forwarding"]
        assert caches["hits"] == _summed(delta, "hits") > 0
        assert caches["misses"] == _summed(delta, "misses") > 0


class TestLogSink:
    def test_json_line_per_event_including_workers(self):
        stream = io.StringIO()
        saved = get_event_bus()
        unsubscribe = configure_logging(level="info", json_output=True,
                                        stream=stream)
        try:
            bus = set_event_bus(EventBus())  # the sink follows the swap
            run_study(SPEC, workers=2)
        finally:
            unsubscribe()
            set_event_bus(saved)
        records = [json.loads(line)
                   for line in stream.getvalue().splitlines()]
        shown = [event for event in bus.events
                 if level_of(event.kind) != "debug"]
        assert [(record["seq"], record["event"]) for record in records] \
            == [(event.seq, event.kind) for event in shown]
        # Both cycles ran in pool workers; their cycle.done events were
        # forwarded to the parent bus and logged there.
        assert sorted(record["cycle"] for record in records
                      if record["event"] == "cycle.done") == [1, 2]

    def test_levels_table(self):
        assert level_of("snapshot.rejected") == "warning"
        assert level_of("warts.record.skipped") == "warning"
        assert level_of("shard.heartbeat") == "debug"
        assert level_of("cycle.done") == "info"


def _drive(events):
    """A tracker and health monitor fed only by ``events``."""
    clock = FakeClock()
    bus = EventBus()
    tracker = ProgressTracker(clock=clock)
    health = HealthMonitor(clock=clock)
    bus.subscribe(tracker.on_event)
    bus.subscribe(health.on_event)
    for kind, fields in events:
        clock.advance(1.0)
        bus.emit(kind, **fields)
    return tracker, health


# Cycle 1 restored; shards 0 (cycles 2-3) and 1 (cycles 4-6); shard 1
# fails once and is subdivided into 2 (4-4) and 3 (5-6); shard 3
# stalls and recovers.
_PLAN = [
    ("study.start", {"cycles": 6, "workers": 2}),
    ("study.plan", {"shards": 2, "workers": 2, "restored": 1,
                    "ranges": [[2, 3], [4, 6]]}),
    ("shard.dispatch", {"shard": 0, "first": 2, "last": 3,
                        "attempt": 1}),
    ("shard.dispatch", {"shard": 1, "first": 4, "last": 6,
                        "attempt": 1}),
    ("shard.heartbeat", {"shard": 0, "cycles_done": 1, "traces": 10}),
    ("shard.heartbeat", {"shard": 1, "cycles_done": 2, "traces": 25}),
    ("shard.heartbeat", {"shard": 0, "cycles_done": 2, "traces": 21}),
    ("shard.done", {"shard": 0, "cycles": 2, "replayed": 1,
                    "traces": 21}),
    ("shard.retry", {"shard": 1, "first": 4, "last": 6, "attempt": 1,
                     "error": "boom"}),
    ("shard.subdivided", {"parent": 1, "children": [2, 3]}),
    ("shard.dispatch", {"shard": 2, "first": 4, "last": 4,
                        "attempt": 2}),
    ("shard.dispatch", {"shard": 3, "first": 5, "last": 6,
                        "attempt": 2}),
    ("shard.heartbeat", {"shard": 2, "cycles_done": 1, "traces": 12}),
    ("shard.stalled", {"shard": 3, "timeout": 0.5}),
    ("shard.recovered", {"shard": 3}),
    ("shard.heartbeat", {"shard": 3, "cycles_done": 2, "traces": 30}),
    ("shard.done", {"shard": 2, "cycles": 1, "replayed": 3,
                    "traces": 12}),
    ("shard.done", {"shard": 3, "cycles": 2, "replayed": 4,
                    "traces": 30}),
]


def _direct():
    """What the runner's direct calls built for the same plan."""
    clock = FakeClock()
    tracker = ProgressTracker(6, clock=clock)
    tracker.add_restored(1)
    tracker.add_shard(0, 2.0)
    tracker.add_shard(1, 3.0)
    tracker.heartbeat(0, cycles_done=1, traces=10)
    tracker.heartbeat(1, cycles_done=2, traces=25)
    tracker.heartbeat(0, cycles_done=2, traces=21)
    tracker.shard_done(0)
    tracker.abandon_shard(1)
    tracker.add_shard(2, 1.0)
    tracker.add_shard(3, 2.0)
    tracker.heartbeat(2, cycles_done=1, traces=12)
    tracker.heartbeat(3, cycles_done=2, traces=30)
    tracker.shard_done(2)
    tracker.shard_done(3)
    return tracker


class TestSubscribersReplayThePlan:
    def test_tracker_snapshot_matches_direct_calls(self):
        tracker, _health = _drive(_PLAN)
        expected = _direct().snapshot()
        actual = tracker.snapshot()
        for key in ("elapsed_s", "eta"):  # wall-clock derived
            expected.pop(key)
            actual.pop(key)
        assert actual == expected
        assert actual["work_done"] == 6.0
        assert actual["shards_done"] == actual["shards_total"] == 3

    def test_health_follows_stall_recover_and_done(self):
        stalled = _PLAN[:_PLAN.index(("shard.recovered", {"shard": 3}))]
        _tracker, health = _drive(stalled)
        status = health.status()
        assert status["status"] == "stalled"
        assert status["stalled_shards"] == ["3"]
        assert status["beats"] == len(stalled)

        _tracker, health = _drive(
            _PLAN + [("study.done", {"cycles": 6, "shards": 3})])
        status = health.status()
        assert status == {"status": "ok", "beats": len(_PLAN) + 1,
                          "finished": True, "stalled_shards": [],
                          "since_last_beat_s": 0.0}


class TestSerialEventsFile:
    def test_two_serial_runs_write_identical_files(self, tmp_path,
                                                   capsys):
        files = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in files:
            assert main(["study", "--cycles", "2", "--scale", "0.25",
                         "--seed", "7", "--artifacts", "table1",
                         "--events-out", str(path)]) == 0
        capsys.readouterr()
        assert files[0].read_bytes() == files[1].read_bytes()
        kinds = [json.loads(line)["kind"]
                 for line in files[0].read_text().splitlines()]
        assert kinds.count("shard.heartbeat") == 2


class TestGraftedSelfTime:
    def test_grafted_worker_time_never_counts_against_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("par.study"):
            clock.advance(1.0)
            with tracer.span("par.fast_forward"):
                clock.advance(0.5)
            # Two workers ran 3 s each while the parent waited 2 s.
            tracer.graft([Span(name="par.worker", start=0.0, end=3.0),
                          Span(name="par.worker", start=0.0, end=3.0)],
                         shard=0)
            clock.advance(2.0)
        study, = tracer.roots
        assert study.duration == 3.5
        assert study.self_time == 3.0  # 3.5 s minus the in-process 0.5
        totals = {total.name: total for total in tracer.totals()}
        assert totals["par.study"].parent_s == 3.5
        assert totals["par.study"].worker_s == 0.0
        assert totals["par.worker"].worker_s == 6.0
        assert totals["par.worker"].parent_s == 0.0
        assert all(total.self_s >= 0 for total in totals.values())
        table = _profile_table(tracer)
        header = table.splitlines()[0].split()
        assert header[:6] == ["span", "calls", "parent", "s", "worker",
                              "s"]
        assert "-" not in "".join(line.split(None, 1)[1]
                                  for line in table.splitlines()[2:])
