"""Tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.core import LprPipeline
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    EventBus,
    FakeClock,
    MetricsRegistry,
    MonotonicClock,
    NullClock,
    Tracer,
    configure_logging,
    emit,
    get_event_bus,
    get_registry,
    get_tracer,
    set_event_bus,
    set_tracer,
    snapshot_to_json,
    span,
    to_prometheus,
    traced,
)
from repro.obs.metrics import Counter, Histogram
from repro.sim import ArkSimulator, paper_scenario


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner-a", "inner-b"]

    def test_fake_clock_durations_are_exact(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
        (root,) = tracer.roots
        assert root.duration == 1.25
        assert root.children[0].duration == 0.25
        assert root.self_time == 1.0

    def test_null_clock_keeps_structure_without_timing(self):
        tracer = Tracer(NullClock())
        with tracer.span("stage", cycle=3) as node:
            pass
        assert node.duration == 0.0
        assert node.attrs == {"cycle": 3}

    def test_span_reopens_after_exception(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError
        assert tracer.active is None
        assert tracer.roots[0].end is not None

    def test_totals_aggregate_by_name(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        for _ in range(3):
            with tracer.span("stage"):
                clock.advance(0.5)
        (totals,) = tracer.totals()
        assert totals.count == 3
        assert totals.total_s == pytest.approx(1.5)
        assert totals.mean_ms == pytest.approx(500.0)

    def test_decorator_and_global_tracer(self):
        saved = get_tracer()
        tracer = set_tracer(Tracer(FakeClock()))
        try:
            @traced("decorated", kind="test")
            def work():
                return 42

            assert work() == 42
            with span("manual"):
                pass
            assert [s.name for s in tracer.roots] == ["decorated",
                                                      "manual"]
        finally:
            set_tracer(saved)

    def test_to_dict_round_trips_through_json(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer", cycle=1):
            clock.advance(2.0)
            with tracer.span("inner"):
                clock.advance(1.0)
        data = json.loads(json.dumps(tracer.to_dict()))
        assert data[0]["name"] == "outer"
        assert data[0]["duration_s"] == 3.0
        assert data[0]["children"][0]["duration_s"] == 1.0


class TestCounters:
    def test_inc_and_labels(self):
        counter = Counter("things_total")
        counter.inc()
        counter.inc(4, kind="a")
        counter.inc(2, kind="a")
        assert counter.value() == 1
        assert counter.value(kind="a") == 6
        assert counter.value(kind="b") == 0

    def test_counters_cannot_decrease(self):
        counter = Counter("things_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_registry_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total")
        b = registry.counter("hits_total")
        assert a is b
        with pytest.raises(TypeError):
            registry.gauge("hits_total")

    def test_execution_flag_is_declared_once(self):
        registry = MetricsRegistry()
        counter = registry.counter("cache_hits_total", execution=True)
        assert registry.counter("cache_hits_total") is counter
        assert registry.counter("cache_hits_total",
                                execution=True) is counter
        with pytest.raises(TypeError):
            registry.counter("cache_hits_total", execution=False)
        registry.gauge("level", execution=False)
        with pytest.raises(TypeError):
            registry.gauge("level", execution=True)

    def test_results_only_drops_execution_metrics(self):
        registry = MetricsRegistry()
        registry.counter("cache_hits_total", execution=True).inc(3)
        registry.counter("lsps_total").inc(2)
        delta = registry.diff({}, registry.snapshot())
        assert delta["cache_hits_total"]["execution"] is True
        assert "execution" not in delta["lsps_total"]
        assert MetricsRegistry.results_only(delta) == {"lsps_total": {
            "values": [{"labels": {}, "value": 2}]}}
        other = MetricsRegistry()
        other.absorb(delta)
        assert other.get("cache_hits_total").execution
        assert not other.get("lsps_total").execution

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value() == 3


class TestHistograms:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("sizes", buckets=(1, 10, 100))
        for value in (0.5, 5, 5, 50, 5000):
            histogram.observe(value)
        cell = histogram.snapshot_cell()
        assert cell["buckets"] == [1, 2, 1, 1]
        assert cell["count"] == 5
        assert cell["sum"] == pytest.approx(5060.5)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(10, 1))


class TestSnapshots:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("lsps_total").inc(7, filter="incomplete")
        registry.gauge("level").set(3.5)
        registry.histogram("sizes", buckets=(1, 10)).observe(4)
        return registry

    def test_json_export_round_trip(self):
        registry = self.build()
        snapshot = registry.snapshot()
        decoded = json.loads(snapshot_to_json(snapshot))
        assert decoded == json.loads(json.dumps(snapshot))
        assert decoded["lsps_total"]["values"][0] == {
            "labels": {"filter": "incomplete"}, "value": 7}
        assert decoded["sizes"]["values"][0]["value"]["count"] == 1

    def test_diff_subtracts_counters_keeps_gauges(self):
        registry = self.build()
        before = registry.snapshot()
        registry.counter("lsps_total").inc(3, filter="incomplete")
        registry.gauge("level").set(9.0)
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert delta["lsps_total"]["values"][0]["value"] == 3
        assert delta["level"]["values"][0]["value"] == 9.0
        assert "sizes" not in delta  # zero delta dropped

    def test_diff_drops_unchanged_gauges(self):
        # A long-lived gauge set *before* the window (a worker's peak
        # RSS, say) must not leak into every later delta: only gauges
        # that changed inside the window survive the diff.
        registry = self.build()
        before = registry.snapshot()
        registry.counter("lsps_total").inc(1, filter="incomplete")
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert "level" not in delta
        assert delta["lsps_total"]["values"][0]["value"] == 1

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = self.build()
        registry.reset()
        assert registry.counter("lsps_total").value(
            filter="incomplete") == 0

    def test_absorb_reapplies_a_delta(self):
        registry = self.build()
        before = registry.snapshot()
        registry.counter("lsps_total").inc(3, filter="incomplete")
        registry.histogram("sizes").observe(2)
        delta = MetricsRegistry.diff(before, registry.snapshot())

        other = self.build()
        other.absorb(delta)
        assert other.counter("lsps_total").value(
            filter="incomplete") == 10
        cell = other.histogram("sizes").snapshot_cell()
        assert cell["count"] == 2
        assert cell["sum"] == 6.0

    def test_absorb_sets_gauges(self):
        registry = self.build()
        registry.absorb({"level": {
            "type": "gauge", "help": "",
            "values": [{"labels": {}, "value": 9.0}]}})
        assert registry.gauge("level").value() == 9.0

    def test_absorb_creates_missing_metrics(self):
        registry = MetricsRegistry()
        registry.absorb(self.build().snapshot())
        assert registry.counter("lsps_total").value(
            filter="incomplete") == 7
        assert registry.histogram("sizes").buckets == (1.0, 10.0)
        assert registry.histogram("sizes").snapshot_cell()["count"] == 1

    def test_absorb_round_trips_with_serial_totals(self):
        # Two "shards" each diffed against their own baseline absorb
        # into a fresh registry to the same totals as one serial run.
        serial = MetricsRegistry()
        parent = MetricsRegistry()
        for rounds in (2, 3):
            shard = MetricsRegistry()
            before = shard.snapshot()
            for _ in range(rounds):
                shard.counter("cycles_total").inc()
                serial.counter("cycles_total").inc()
            parent.absorb(MetricsRegistry.diff(before, shard.snapshot()))
        assert parent.snapshot() == serial.snapshot()

    def test_absorb_takes_kinds_from_the_registry(self):
        # A results-only payload names no type: the registered
        # histogram absorbs cells and the registered gauge is set.
        registry = self.build()
        before = registry.snapshot()
        registry.histogram("sizes").observe(2)
        registry.gauge("level").set(8.0)
        payload = MetricsRegistry.results_only(
            MetricsRegistry.diff(before, registry.snapshot()))
        other = self.build()
        other.absorb(payload)
        assert other.histogram("sizes").snapshot_cell()["count"] == 2
        assert other.gauge("level").value() == 8.0

    def test_absorb_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MetricsRegistry().absorb({"weird": {
                "type": "summary", "values": []}})

    def test_absorb_rejects_mismatched_histogram_cell(self):
        registry = self.build()
        with pytest.raises(ValueError):
            registry.histogram("sizes").absorb_cell(
                {"buckets": [1, 0], "sum": 0.5, "count": 1})

    def test_prometheus_text_format(self):
        text = to_prometheus(self.build())
        assert '# TYPE lsps_total counter' in text
        assert 'lsps_total{filter="incomplete"} 7' in text
        assert 'sizes_bucket{le="10"} 1' in text
        assert 'sizes_bucket{le="+Inf"} 1' in text
        assert 'sizes_count 1' in text


class TestPrometheusGolden:
    """Exact-text exposition checks: escaping, bucket math, spellings."""

    def build(self):
        registry = MetricsRegistry()
        weird = registry.counter("weird_total", "odd labels")
        weird.inc(1, path=r"C:\tmp", note='say "hi"', text="a\nb")
        gauge = registry.gauge("extremes", "non-finite values")
        gauge.set(float("inf"), kind="pos")
        gauge.set(float("-inf"), kind="neg")
        gauge.set(float("nan"), kind="nan")
        gauge.set(1e21, kind="huge")
        hist = registry.histogram("latency", "with odd bounds",
                                  buckets=(1e-07, 0.5, 1e21))
        for value in (0.0, 0.25, 0.75, 2.0, 1e22):
            hist.observe(value)
        return registry

    def test_golden_exposition(self):
        expected = "\n".join([
            "# HELP extremes non-finite values",
            "# TYPE extremes gauge",
            'extremes{kind="huge"} 1000000000000000000000',
            'extremes{kind="nan"} NaN',
            'extremes{kind="neg"} -Inf',
            'extremes{kind="pos"} +Inf',
            "# HELP latency with odd bounds",
            "# TYPE latency histogram",
            'latency_bucket{le="0.0000001"} 1',
            'latency_bucket{le="0.5"} 2',
            'latency_bucket{le="1000000000000000000000"} 4',
            'latency_bucket{le="+Inf"} 5',
            # 1e22 + 3 rounds to 1e22 in float64; what matters here is
            # the plain-decimal expansion of the e-notation repr.
            "latency_sum 10000000000000000000000",
            "latency_count 5",
            "# HELP weird_total odd labels",
            "# TYPE weird_total counter",
            'weird_total{note="say \\"hi\\"",'
            'path="C:\\\\tmp",text="a\\nb"} 1',
            "",
        ])
        assert to_prometheus(self.build()) == expected

    def test_le_buckets_are_cumulative_monotone(self):
        text = to_prometheus(self.build())
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("latency_bucket")]
        assert counts == sorted(counts)

    def test_exposition_content_type(self):
        # The 0.0.4 text exposition content type scrapers negotiate on;
        # /metrics serves exactly this string.
        assert PROMETHEUS_CONTENT_TYPE == \
            "text/plain; version=0.0.4; charset=utf-8"

    def test_inf_bucket_equals_count(self):
        text = to_prometheus(self.build())
        lines = text.splitlines()
        (inf_line,) = [l for l in lines if '{le="+Inf"}' in l]
        (count_line,) = [l for l in lines
                         if l.startswith("latency_count")]
        assert inf_line.rsplit(" ", 1)[1] == \
            count_line.rsplit(" ", 1)[1]


class TestFormatNumber:
    def test_spellings(self):
        from repro.obs.export import _format_number
        assert _format_number(float("inf")) == "+Inf"
        assert _format_number(float("-inf")) == "-Inf"
        assert _format_number(float("nan")) == "NaN"
        assert _format_number(2.5) == "2.5"
        assert _format_number(3.0) == "3"
        assert _format_number(7) == "7"
        # repr() e-notation is expanded to plain decimal
        assert _format_number(1e-07) == "0.0000001"
        assert _format_number(1e21) == "1000000000000000000000"
        assert _format_number(2.5e-09) == "0.0000000025"


class TestStructuredLogging:
    """The log formatter is a carried subscriber of the event bus."""

    def test_key_value_line(self, capsys):
        unsubscribe = configure_logging(level="info")
        try:
            emit("cycle.done", cycle=3, note="two words")
        finally:
            unsubscribe()
        err = capsys.readouterr().err
        assert "INFO    cycle.done" in err
        assert "cycle=3" in err
        assert 'note="two words"' in err

    def test_json_lines(self, capsys):
        unsubscribe = configure_logging(level="debug", json_output=True)
        try:
            emit("shard.heartbeat", shard=1, cycles_done=2, traces=7)
        finally:
            unsubscribe()
        record = json.loads(capsys.readouterr().err.strip())
        assert record["event"] == "shard.heartbeat"
        assert record["traces"] == 7
        assert record["level"] == "debug"

    def test_level_gating(self, capsys):
        unsubscribe = configure_logging(level="warning")
        try:
            emit("cycle.done", cycle=1)
            emit("shard.retry", shard=0, attempt=1, error="boom")
            emit("checkpoint.rejected", path="x", reason="corrupt")
        finally:
            unsubscribe()
        err = capsys.readouterr().err
        assert "cycle.done" not in err
        assert "WARNING shard.retry" in err
        assert "WARNING checkpoint.rejected" in err

    def test_sink_follows_a_bus_swap(self, capsys):
        saved = get_event_bus()
        unsubscribe = configure_logging(level="info", json_output=True)
        try:
            emit("study.start", cycles=1, workers=1)
            swapped = set_event_bus(EventBus())
            emit("study.done", cycles=1, shards=1)
            set_event_bus(saved)
            swapped.emit("study.plan", shards=1)  # detached again
        finally:
            unsubscribe()
            set_event_bus(saved)
        records = [json.loads(line)
                   for line in capsys.readouterr().err.splitlines()]
        assert [record["event"] for record in records] == \
            ["study.start", "study.done"]

    def test_reconfigure_replaces_the_sink(self, capsys):
        configure_logging(level="info")
        unsubscribe = configure_logging(level="info", json_output=True)
        try:
            emit("cycle.done", cycle=2)
        finally:
            unsubscribe()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["cycle"] == 2

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")


class TestPipelineReconciliation:
    """Filter drop counters must agree exactly with FilterStats."""

    @pytest.fixture(scope="class")
    def cycle_result(self):
        simulator = ArkSimulator(paper_scenario(scale=0.4, seed=7))
        pipeline = LprPipeline(simulator.internet.ip2as)
        get_registry().reset()
        return pipeline.process_cycle(simulator.run_cycle(30))

    def drops(self, result):
        values = result.metrics["lsps_dropped_total"]["values"]
        return {entry["labels"]["filter"]: entry["value"]
                for entry in values}

    def test_per_filter_drops_match_filter_stats(self, cycle_result):
        stats = cycle_result.filter_stats
        drops = self.drops(cycle_result)
        expected = {
            "incomplete": stats.extracted - stats.after_incomplete,
            "intra_as": stats.after_incomplete - stats.after_intra_as,
            "target_as": stats.after_intra_as - stats.after_target_as,
            "transit_diversity":
                stats.after_target_as - stats.after_transit_diversity,
            "persistence":
                stats.after_transit_diversity - stats.after_persistence,
        }
        for stage, value in expected.items():
            assert drops.get(stage, 0) == value, stage

    def test_drop_sum_equals_total_attrition(self, cycle_result):
        stats = cycle_result.filter_stats
        assert sum(self.drops(cycle_result).values()) == \
            stats.extracted - stats.after_persistence

    def test_classification_counters_match_counts(self, cycle_result):
        values = cycle_result.metrics[
            "iotps_classified_total"]["values"]
        counted = {entry["labels"]["tunnel_class"]: entry["value"]
                   for entry in values}
        for tunnel_class, count in \
                cycle_result.classification.counts().items():
            assert counted.get(tunnel_class.value, 0) == count

    def test_cycle_metrics_are_deterministic(self):
        def run():
            simulator = ArkSimulator(paper_scenario(scale=0.4, seed=7))
            pipeline = LprPipeline(simulator.internet.ip2as)
            return pipeline.process_cycle(simulator.run_cycle(30))

        assert run().metrics == run().metrics

    def test_null_clock_is_the_default(self):
        assert isinstance(get_tracer().clock, (NullClock,
                                               MonotonicClock))
        # A fresh tracer must never read the wall clock by default.
        assert isinstance(Tracer().clock, NullClock)
