"""Tests for the flight-recorder primitives (repro.obs.events,
repro.obs.progress) and the Chrome trace exporter."""

import io
import json

import pytest

from repro.obs import (
    Event,
    EventBus,
    FakeClock,
    NullClock,
    ProgressPrinter,
    ProgressTracker,
    Span,
    Tracer,
    emit,
    event_from_dict,
    get_event_bus,
    read_events,
    set_event_bus,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import iter_kind
from repro.obs.progress import _format_seconds


class TestEventBus:
    def test_seq_is_monotonic_from_one(self):
        bus = EventBus()
        events = [bus.emit("a"), bus.emit("b"), bus.emit("c")]
        assert [e.seq for e in events] == [1, 2, 3]

    def test_null_clock_means_no_timestamps(self):
        bus = EventBus()
        event = bus.emit("cycle.done", cycle=3)
        assert event.ts is None
        assert "ts" not in event.to_dict()

    def test_real_clock_stamps_events(self):
        clock = FakeClock(100.0)
        bus = EventBus(clock=clock)
        first = bus.emit("a")
        clock.advance(2.5)
        second = bus.emit("b")
        assert first.ts == 100.0
        assert second.ts == 102.5

    def test_reserved_field_names_rejected(self):
        bus = EventBus()
        for key in ("seq", "ts"):
            with pytest.raises(ValueError):
                bus.emit("a", **{key: 1})
        # "kind" is positional-only, so shadowing it is also rejected
        # (as the reserved-key ValueError, not a TypeError).
        with pytest.raises(ValueError):
            bus.emit("a", kind="other")

    def test_fields_flatten_into_the_json_line(self):
        stream = io.StringIO()
        bus = EventBus(sink=stream)
        bus.emit("shard.done", shard=2, traces=99)
        line = json.loads(stream.getvalue())
        assert line == {"seq": 1, "kind": "shard.done", "shard": 2,
                        "traces": 99}

    def test_ring_buffer_keeps_the_tail(self):
        bus = EventBus(keep=3)
        for index in range(5):
            bus.emit("tick", index=index)
        assert [e.fields["index"] for e in bus.events] == [2, 3, 4]
        assert [e.seq for e in bus.events] == [3, 4, 5]

    def test_sink_roundtrip_via_read_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventBus(sink=path) as bus:
            bus.emit("study.start", cycles=4)
            bus.emit("study.done", cycles=4)
        events = read_events(path)
        assert [e.kind for e in events] == ["study.start", "study.done"]
        assert events[0].fields == {"cycles": 4}

    def test_read_events_names_the_malformed_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"seq": 1, "kind": "a"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_events(path)

    def test_event_from_dict_splits_fields(self):
        event = event_from_dict({"seq": 7, "kind": "x", "ts": 1.5,
                                 "cycle": 3})
        assert event == Event(seq=7, kind="x", ts=1.5,
                              fields={"cycle": 3})

    def test_iter_kind_filters(self):
        bus = EventBus()
        bus.emit("a")
        bus.emit("b")
        bus.emit("a")
        assert len(list(iter_kind(bus.events, "a"))) == 2

    def test_global_bus_swap_and_emit(self):
        previous = get_event_bus()
        try:
            bus = set_event_bus(EventBus())
            emit("hello", x=1)
            assert bus.events[-1].kind == "hello"
        finally:
            set_event_bus(previous)


class TestProgressTracker:
    def test_heartbeats_accumulate_work(self):
        tracker = ProgressTracker(4)
        tracker.add_shard(0, 2.0)
        tracker.add_shard(1, 2.0)
        tracker.heartbeat(0, cycles_done=1)
        tracker.heartbeat(1, cycles_done=2)
        assert tracker.work_done == 3.0
        assert tracker.fraction == pytest.approx(0.75)

    def test_restored_cycles_count_as_done_work(self):
        # A resume restores cycles 1-2 before planning; they belong to
        # no shard but count toward the campaign.
        tracker = ProgressTracker(4)
        tracker.add_restored(2)
        tracker.add_shard(0, 2.0)
        assert tracker.work_done == 2.0
        assert tracker.shards_total == 1
        tracker.heartbeat(0, cycles_done=1)
        assert tracker.work_done == 3.0
        tracker.shard_done(0)
        assert tracker.fraction == 1.0

    def test_stale_heartbeat_never_moves_backwards(self):
        tracker = ProgressTracker(4)
        tracker.add_shard(0, 4.0)
        tracker.heartbeat(0, cycles_done=3)
        tracker.heartbeat(0, cycles_done=1)  # late re-delivery
        assert tracker.work_done == 3.0

    def test_abandoned_shard_keeps_the_high_water_mark(self):
        tracker = ProgressTracker(4)
        tracker.add_shard(0, 4.0)
        tracker.heartbeat(0, cycles_done=2)
        tracker.abandon_shard(0)
        tracker.add_shard(1, 2.0)
        tracker.add_shard(2, 2.0)
        assert tracker.work_done == 2.0  # not reset by the retry
        tracker.heartbeat(1, cycles_done=1)
        assert tracker.work_done == 2.0  # redone work only counts past
        tracker.shard_done(1)
        tracker.shard_done(2)
        assert tracker.work_done == 4.0

    def test_unknown_shard_heartbeat_is_ignored(self):
        tracker = ProgressTracker(4)
        tracker.heartbeat(99, cycles_done=3)
        assert tracker.work_done == 0.0

    def test_eta_from_fake_clock(self):
        clock = FakeClock()
        tracker = ProgressTracker(4, clock=clock)
        tracker.add_shard(0, 4.0)
        assert tracker.eta_seconds() is None
        clock.advance(10.0)
        tracker.heartbeat(0, cycles_done=1)
        assert tracker.eta_seconds() == pytest.approx(30.0)

    def test_null_clock_gives_no_eta(self):
        tracker = ProgressTracker(4)
        tracker.add_shard(0, 4.0)
        tracker.heartbeat(0, cycles_done=2)
        assert tracker.eta_seconds() is None
        assert "eta --" in tracker.render()

    def test_render_line(self):
        clock = FakeClock()
        tracker = ProgressTracker(4, clock=clock)
        tracker.add_shard(0, 2.0)
        tracker.add_shard(1, 2.0)
        clock.advance(8.0)
        tracker.heartbeat(0, cycles_done=2, traces=500)
        tracker.shard_done(0)
        line = tracker.render()
        assert line == ("cycles 2/4 (50%) | shards 1/2 | "
                        "traces 500 | eta 8s")

    def test_format_seconds(self):
        assert _format_seconds(42) == "42s"
        assert _format_seconds(90) == "1m30s"
        assert _format_seconds(3_700) == "1h01m"

    def test_snapshot_is_json_ready(self):
        clock = FakeClock()
        tracker = ProgressTracker(4, clock=clock)
        tracker.add_shard(0, 2.0)
        tracker.add_shard(1, 2.0)
        clock.advance(10.0)
        tracker.heartbeat(0, cycles_done=2, traces=100)
        tracker.shard_done(0)
        snap = tracker.snapshot()
        assert snap["work_done"] == 2.0
        assert snap["eta"] == pytest.approx(10.0)
        assert snap["shards_done"] == 1
        assert snap["traces"] == 100
        assert [s["shard"] for s in snap["shards"]] == [0, 1]
        json.dumps(snap)  # the /progress endpoint serialises this

    def test_snapshot_without_work_has_null_eta(self):
        snap = ProgressTracker(4).snapshot()
        assert snap["eta"] is None
        assert snap["work_done"] == 0.0
        assert snap["shards"] == []

    def test_tty_printer_overwrites_and_finishes(self):
        stream = _TtyStringIO()
        printer = ProgressPrinter(stream)
        tracker = ProgressTracker(4)
        tracker.add_shard(0, 4.0)
        printer.update(tracker)
        tracker.shard_done(0)
        printer.update(tracker)
        printer.finish()
        output = stream.getvalue()
        assert output.count("\r") == 3  # 2 redraws + final summary
        assert output.endswith("\n")
        assert output.count("\n") == 1  # only finish() ends a line

    def test_non_tty_printer_emits_plain_deduped_lines(self):
        stream = io.StringIO()  # StringIO.isatty() is False
        printer = ProgressPrinter(stream)
        tracker = ProgressTracker(4)
        tracker.add_shard(0, 4.0)
        printer.update(tracker)
        printer.update(tracker)  # unchanged -> no duplicate line
        tracker.shard_done(0)
        printer.update(tracker)
        printer.finish()
        output = stream.getvalue()
        assert "\r" not in output
        lines = output.splitlines()
        assert len(lines) == 2  # deduped; final line already current
        assert lines[-1].startswith("cycles 4/4")
        assert output.endswith("\n")

    def test_non_tty_finish_always_leaves_a_summary(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        tracker = ProgressTracker(4)
        tracker.add_shard(0, 4.0)
        printer.update(tracker)
        tracker.shard_done(0)  # progress since the last update...
        printer.finish()       # ...so finish prints the fresh summary
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("cycles 4/4")

    def test_finish_without_updates_writes_nothing(self):
        stream = io.StringIO()
        ProgressPrinter(stream).finish()
        assert stream.getvalue() == ""


class _TtyStringIO(io.StringIO):
    """A StringIO that claims to be a terminal."""

    def isatty(self):
        return True


class TestChromeTrace:
    def _tree(self):
        clock = FakeClock(1000.0)
        tracer = Tracer(clock)
        with tracer.span("study", cycles=2):
            clock.advance(1.0)
            with tracer.span("assemble"):
                clock.advance(0.5)
        return tracer

    def test_complete_events_in_microseconds(self):
        payload = to_chrome_trace(self._tree())
        events = [e for e in payload["traceEvents"]
                  if e["ph"] == "X"]
        study = next(e for e in events if e["name"] == "study")
        assert study["ts"] == 0.0  # normalized to the earliest start
        assert study["dur"] == pytest.approx(1.5e6)
        child = next(e for e in events if e["name"] == "assemble")
        assert child["ts"] == pytest.approx(1e6)

    def test_shard_attribute_moves_subtree_to_its_own_track(self):
        tracer = self._tree()
        worker = Span(name="par.worker", attrs={"shard": 3},
                      start=1000.2, end=1000.4,
                      children=[Span(name="sim.cycle", start=1000.2,
                                     end=1000.3)])
        tracer.roots[0].children.append(worker)
        payload = to_chrome_trace(tracer)
        by_name = {e["name"]: e for e in payload["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["study"]["tid"] == 0
        assert by_name["par.worker"]["tid"] == 4
        assert by_name["sim.cycle"]["tid"] == 4  # inherited
        names = {e["tid"]: e["args"]["name"]
                 for e in payload["traceEvents"] if e["ph"] == "M"}
        assert names == {0: "parent", 4: "shard 3"}

    def test_open_span_is_flagged(self):
        tracer = Tracer(FakeClock())
        context = tracer.span("stuck")  # held open: never exited
        context.__enter__()
        payload = to_chrome_trace(tracer)
        (event,) = [e for e in payload["traceEvents"]
                    if e["ph"] == "X"]
        assert event["args"]["open"] is True
        assert event["dur"] == 0.0

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._tree())
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert any(e["name"] == "study"
                   for e in payload["traceEvents"])


class TestGraft:
    def test_graft_under_active_span(self):
        tracer = Tracer(NullClock())
        foreign = [Span(name="par.worker")]
        with tracer.span("study"):
            tracer.graft(foreign, shard=7)
        (root,) = tracer.roots
        (grafted,) = root.children
        assert grafted.name == "par.worker"
        assert grafted.attrs == {"shard": 7}

    def test_graft_without_active_span_adds_roots(self):
        tracer = Tracer(NullClock())
        tracer.graft([Span(name="a"), Span(name="b")])
        assert [r.name for r in tracer.roots] == ["a", "b"]

    def test_grafted_totals_count_worker_time(self):
        tracer = Tracer(FakeClock())
        worker = Span(name="sim.cycle", start=0.0, end=2.0)
        with tracer.span("study"):
            tracer.graft([worker], shard=0)
        names = {t.name: t.total_s for t in tracer.totals()}
        assert names["sim.cycle"] == 2.0


class TestTracerReset:
    def test_reset_clears_the_stack(self):
        tracer = Tracer(NullClock())
        context = tracer.span("outer")
        context.__enter__()
        tracer.reset()
        assert tracer.active is None
        assert tracer.roots == []
        # The orphaned exit must not raise or touch the new tree.
        context.__exit__(None, None, None)
        with tracer.span("fresh"):
            pass
        assert [r.name for r in tracer.roots] == ["fresh"]

    def test_open_span_to_dict_is_flagged_not_zero(self):
        tracer = Tracer(FakeClock())
        context = tracer.span("stuck")  # held open: never exited
        context.__enter__()
        (data,) = tracer.to_dict()
        assert data["open"] is True
        assert "duration_s" not in data
