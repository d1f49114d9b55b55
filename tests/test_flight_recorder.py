"""End-to-end tests for the study flight recorder (DESIGN §9).

The contracts under test:

* a fully instrumented parallel run (--progress + events sink + real
  clocks) produces monotonically non-decreasing progress, a Chrome
  trace whose worker spans sit on shard-labelled tracks, a profile
  table that accounts for worker stages, and an events file ``repro
  report`` can reconstruct;
* all of that telemetry changes nothing about the study's results —
  the instrumented parallel run stays byte-identical to a bare serial
  one;
* the default path (NullClock, no sinks) never reads the wall clock,
  so a serial run's events are deterministic across invocations.
"""

import json

import pytest

from repro.cli import _profile_table
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    EventBus,
    FakeClock,
    HealthMonitor,
    MonotonicClock,
    NullClock,
    ProgressTracker,
    TelemetryServer,
    Tracer,
    delta_total,
    get_event_bus,
    get_tracer,
    read_events,
    set_event_bus,
    set_tracer,
    write_chrome_trace,
)
from repro.analysis.flightreport import flight_report, \
    flight_report_data
from repro.par import CheckpointStore, StudySpec, run_study
from repro.par.checkpoint import CHECKPOINT_VERSION

SPEC = StudySpec(scale=0.25, seed=7, cycles=4, snapshots_per_cycle=2)
SPEC2 = StudySpec(scale=0.25, seed=7, cycles=2, snapshots_per_cycle=2)


@pytest.fixture(scope="module")
def serial_run():
    """The plain baseline: no telemetry, default clocks."""
    return run_study(SPEC, workers=1)


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    """One parallel run with every flight-recorder feature on,
    including the DESIGN §12 live plane: a telemetry server scraped
    mid-run, resource sampling and an (ample) stall deadline."""
    out = tmp_path_factory.mktemp("flightrec")
    events_path = out / "events.jsonl"
    trace_path = out / "trace.json"
    ticks = []
    scrapes = {}

    saved_tracer, saved_bus = get_tracer(), get_event_bus()
    tracer = set_tracer(Tracer(MonotonicClock()))
    bus = set_event_bus(EventBus(clock=MonotonicClock(),
                                 sink=events_path))
    health = HealthMonitor()
    server = TelemetryServer(bus=bus, health=health)
    tracker = ProgressTracker(clock=MonotonicClock())
    server.set_tracker(tracker)

    def on_progress(event):
        if not tracker.on_event(event):
            return
        ticks.append((tracker.work_done, tracker.shards_done,
                      tracker.traces, tracker.render()))
        # Scrape every endpoint once mid-run, as soon as the ETA is
        # computable (some work done, some wall time elapsed).
        if (not scrapes and tracker.work_done > 0
                and tracker.elapsed() > 0):
            for path in ("/metrics", "/healthz", "/progress",
                         "/events?n=10"):
                scrapes[path] = server.respond(path)

    bus.subscribe(health.on_event)
    bus.subscribe(on_progress)
    try:
        run = run_study(SPEC, workers=4, resources=True,
                        stall_timeout=300.0)
        write_chrome_trace(trace_path, tracer)
    finally:
        bus.close()
        set_tracer(saved_tracer)
        set_event_bus(saved_bus)
    return {"run": run, "tracer": tracer, "ticks": ticks,
            "events_path": events_path, "trace_path": trace_path,
            "scrapes": scrapes, "health": health}


class TestProgress:
    def test_work_done_is_monotonic(self, telemetry_run):
        done = [tick[0] for tick in telemetry_run["ticks"]]
        assert done == sorted(done)
        assert done[-1] == SPEC.cycles

    def test_traces_are_monotonic(self, telemetry_run):
        traces = [tick[2] for tick in telemetry_run["ticks"]]
        assert traces == sorted(traces)
        assert traces[-1] > 0

    def test_all_shards_finish(self, telemetry_run):
        _done, shards_done, _traces, line = telemetry_run["ticks"][-1]
        assert shards_done == 4
        assert "(100%)" in line

    def test_heartbeats_arrived_mid_flight(self, telemetry_run):
        # More callback ticks than shards: the in-flight heartbeats
        # (one per worker cycle) were delivered, not just completions.
        assert len(telemetry_run["ticks"]) > 4

    def test_fake_progress_clock_reads_no_wall_clock(self):
        clock = FakeClock()
        tracker = ProgressTracker(clock=clock)
        etas = []

        def on_progress(event):
            if tracker.on_event(event):
                clock.advance(1.0)
                etas.append(tracker.eta_seconds())

        saved = get_event_bus()
        bus = set_event_bus(EventBus())
        bus.subscribe(on_progress)
        try:
            run = run_study(SPEC2, workers=1)
        finally:
            set_event_bus(saved)
        assert len(run.results) == SPEC2.cycles
        assert len(etas) == SPEC2.cycles + 1  # per cycle + final
        assert etas[-1] == 0.0


class TestWorkerSpans:
    def test_worker_trees_grafted_under_study_span(self, telemetry_run):
        tracer = telemetry_run["tracer"]
        study = next(root for root in tracer.roots
                     if root.name == "par.study")
        workers = [child for child in study.children
                   if child.name == "par.worker"]
        assert len(workers) == 4
        assert sorted(w.attrs["shard"] for w in workers) == [0, 1, 2, 3]
        # Worker time is real: a probing shard takes nonzero wall time.
        assert all(w.duration > 0 for w in workers)

    def test_worker_stages_appear_in_profile_table(self, telemetry_run):
        table = _profile_table(telemetry_run["tracer"])
        for stage in ("par.worker", "sim.cycle", "pipeline.filters",
                      "classification.classify"):
            assert stage in table

    def test_chrome_trace_has_shard_tracks(self, telemetry_run):
        payload = json.loads(
            telemetry_run["trace_path"].read_text())
        names = {event["tid"]: event["args"]["name"]
                 for event in payload["traceEvents"]
                 if event["ph"] == "M"}
        assert names[0] == "parent"
        assert {names[tid] for tid in names if tid != 0} == \
            {"shard 0", "shard 1", "shard 2", "shard 3"}
        worker_events = [event for event in payload["traceEvents"]
                        if event["ph"] == "X" and event["tid"] != 0]
        assert {e["name"] for e in worker_events} >= \
            {"par.worker", "sim.cycle", "pipeline.cycle"}


class TestLiveScrapes:
    """Mid-run endpoint responses captured by the fixture's callback."""

    def test_metrics_scrape_is_valid_prometheus(self, telemetry_run):
        status, content_type, body = \
            telemetry_run["scrapes"]["/metrics"]
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE par_shards_total counter" in text
        # Resource sampling was live mid-run: the heartbeat-fed worker
        # gauges already carry samples (shard counters only total up at
        # shard completion, so they may still be bare at scrape time).
        assert "# TYPE worker_rss_bytes gauge" in text
        samples = [line for line in text.splitlines()
                   if line.startswith("worker_rss_bytes{")]
        assert samples
        assert all(float(line.rsplit(" ", 1)[1]) > 0
                   for line in samples)

    def test_healthz_ok_while_running(self, telemetry_run):
        status, _, body = telemetry_run["scrapes"]["/healthz"]
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["finished"] is False  # scraped mid-run
        assert telemetry_run["health"].status()["finished"] is True

    def test_progress_json_has_finite_eta(self, telemetry_run):
        status, _, body = telemetry_run["scrapes"]["/progress"]
        payload = json.loads(body)
        assert status == 200
        assert payload["total_cycles"] == SPEC.cycles
        assert 0 < payload["work_done"] <= SPEC.cycles
        assert payload["eta"] is not None
        assert 0 <= payload["eta"] < float("inf")
        assert len(payload["shards"]) == 4

    def test_events_tail_serves_the_ring(self, telemetry_run):
        status, _, body = telemetry_run["scrapes"]["/events?n=10"]
        payload = json.loads(body)
        assert status == 200
        assert 0 < payload["count"] <= 10
        assert all("seq" in event for event in payload["events"])


class TestEventsFile:
    def test_lifecycle_events_in_order(self, telemetry_run):
        events = read_events(telemetry_run["events_path"])
        kinds = [event.kind for event in events]
        assert kinds[0] == "study.start"
        assert kinds[-1] == "study.done"
        assert "study.plan" in kinds
        assert kinds.count("shard.dispatch") == 4
        assert kinds.count("shard.done") == 4
        assert kinds.count("cycle.metrics") == SPEC.cycles
        assert "shard.heartbeat" in kinds

    def test_worker_resources_events_per_process(self, telemetry_run):
        events = read_events(telemetry_run["events_path"])
        samples = [e for e in events if e.kind == "worker.resources"]
        shards = {e.fields["shard"] for e in samples}
        assert {0, 1, 2, 3, "parent"} <= shards
        assert all(e.fields["rss_bytes"] > 0 for e in samples)
        assert "shard.stalled" not in {e.kind for e in events}

    def test_seq_strictly_increasing_ts_present(self, telemetry_run):
        events = read_events(telemetry_run["events_path"])
        seqs = [event.seq for event in events]
        assert seqs == list(range(1, len(events) + 1))
        stamps = [event.ts for event in events]
        assert all(ts is not None for ts in stamps)
        assert stamps == sorted(stamps)

    def test_shard_done_traces_reconcile(self, telemetry_run):
        events = read_events(telemetry_run["events_path"])
        from_events = sum(e.fields["traces"] for e in events
                          if e.kind == "shard.done")
        from_shards = sum(
            delta_total(shard.metrics_delta, "sim_traces_total")
            for shard in telemetry_run["run"].shards)
        assert from_events == from_shards > 0

    def test_report_reconstructs_the_run(self, telemetry_run):
        report = flight_report(telemetry_run["events_path"],
                               trace_path=telemetry_run["trace_path"])
        assert "cycles: 4  workers: 4" in report
        assert "completed: 4 cycle results" in report
        assert "== shard timeline ==" in report
        assert report.count("done") >= 4
        assert "== filter drops per cycle ==" in report
        assert "== resource usage ==" in report
        assert "peak rss" in report
        assert "parent" in report
        assert "== per-stage time (from trace) ==" in report
        assert "par.worker" in report
        assert "== slowest cycles" in report
        assert "== stalls ==" not in report  # nothing stalled

    def test_json_report_mirrors_the_text_sections(self, telemetry_run):
        data = flight_report_data(
            telemetry_run["events_path"],
            trace_path=telemetry_run["trace_path"])
        decoded = json.loads(json.dumps(data))  # JSON round trip
        assert decoded["study"]["cycles"] == 4
        assert decoded["study"]["completed"] is True
        assert len(decoded["shards"]) == 4
        assert decoded["caches"]["forwarding"]["hits"] > 0
        shards = {row["shard"] for row in decoded["resources"]}
        assert {"0", "1", "2", "3", "parent"} <= shards
        assert all(row["peak_rss_bytes"] > 0
                   for row in decoded["resources"])
        assert decoded["filters"]["cycles"] == [1, 2, 3, 4]
        assert any(row["span"] == "par.worker"
                   for row in decoded["stages"])
        assert "stalls" not in decoded

    def test_report_cache_families_are_guarded(self, telemetry_run):
        # A run has forwarding and ip2as-memo telemetry; a family
        # absent from the events file is omitted, not divided by zero.
        report = flight_report(telemetry_run["events_path"])
        assert "== forwarding-path caches ==" in report
        assert "ip2as memo" in report

    def test_serial_events_are_deterministic(self):
        def capture():
            saved = get_event_bus()
            bus = set_event_bus(EventBus())
            try:
                run_study(SPEC2, workers=1)
            finally:
                set_event_bus(saved)
            return [event.to_dict() for event in bus.events]

        first, second = capture(), capture()
        assert first == second
        assert all("ts" not in row for row in first)


def _recorded(events_path, workers, **options):
    """Run SPEC with its events streamed to ``events_path``."""
    saved = get_event_bus()
    bus = set_event_bus(EventBus(sink=events_path))
    try:
        run_study(SPEC, workers=workers, **options)
    finally:
        bus.close()
        set_event_bus(saved)
    return events_path


class TestRestoreCount:
    """``repro report`` counts restored *cycles*, the same way for a
    serial and a parallel resume (from ``checkpoint.hit`` events)."""

    @staticmethod
    def _resume(tmp_path, workers):
        """A full checkpointed run, minus cycles 3-4, resumed on
        ``workers``; returns the resume's events file."""
        checkpoints = tmp_path / "checkpoints"
        _recorded(tmp_path / "full.jsonl", 1, checkpoint_dir=checkpoints)
        store = CheckpointStore(checkpoints, SPEC)
        store.path_for(3).unlink()
        store.path_for(4).unlink()
        return _recorded(tmp_path / "events.jsonl", workers,
                         checkpoint_dir=checkpoints)

    def test_serial_resume_reports_restored_cycles(self, tmp_path):
        events_path = self._resume(tmp_path, workers=1)
        assert "restored from checkpoint: 2" in \
            flight_report(events_path)
        data = flight_report_data(events_path)
        assert data["study"]["restored_from_checkpoint"] == 2

    def test_parallel_resume_reports_restored_cycles(self, tmp_path):
        events_path = self._resume(tmp_path, workers=2)
        report = flight_report(events_path)
        assert "restored from checkpoint: 2" in report
        assert "planned shards: 2" in report
        data = flight_report_data(events_path)
        assert data["study"]["restored_from_checkpoint"] == 2
        # Restored cycles take no shard id: the timeline holds exactly
        # the two planned shards, both executed.
        assert [(row["shard"], row["work"], row["status"])
                for row in data["shards"]] == [
            (0, "cycle 3", "done"), (1, "cycle 4", "done")]


class TestTelemetryByteIdentity:
    """Telemetry must observe, never perturb (DESIGN §6)."""

    def test_results_identical_to_bare_serial(self, serial_run,
                                              telemetry_run):
        instrumented = telemetry_run["run"]
        assert len(serial_run.results) == len(instrumented.results)
        for serial, parallel in zip(serial_run.results,
                                    instrumented.results):
            assert serial.stats == parallel.stats
            assert serial.filter_stats == parallel.filter_stats
            assert serial.classification.verdicts == \
                parallel.classification.verdicts
            assert serial.metrics == parallel.metrics

    def test_simulator_end_state_identical(self, serial_run,
                                           telemetry_run):
        serial_sim = serial_run.simulator
        parallel_sim = telemetry_run["run"].simulator
        assert _label_state(serial_sim.internet) == \
            _label_state(parallel_sim.internet)


def _label_state(internet):
    """Label-allocator positions — a cheap end-state fingerprint."""
    state = []
    for asn in sorted(internet.networks):
        network = internet.networks[asn]
        if network.labels is None:
            state.append((asn, None))
            continue
        state.append((asn, tuple(
            (router, alloc._next, alloc.allocated_total)
            for router, alloc in
            sorted(network.labels.allocators.items()))))
    return state


class TestCheckpointSpans:
    def test_spans_stripped_on_save(self, tmp_path):
        # A profiled run's worker spans never reach checkpoint bytes.
        saved = get_tracer()
        set_tracer(Tracer(MonotonicClock()))
        try:
            run_study(SPEC2, workers=2,
                      checkpoint_dir=tmp_path / "profiled")
        finally:
            set_tracer(saved)
        run_study(SPEC2, workers=2, checkpoint_dir=tmp_path / "bare")
        profiled = CheckpointStore(tmp_path / "profiled", SPEC2)
        bare = CheckpointStore(tmp_path / "bare", SPEC2)
        for cycle in range(1, SPEC2.cycles + 1):
            assert profiled.path_for(cycle).read_bytes() == \
                bare.path_for(cycle).read_bytes()

    def test_older_version_files_rejected(self, tmp_path):
        import pickle
        store = CheckpointStore(tmp_path, SPEC2)
        run_study(SPEC2, workers=1, checkpoint_dir=tmp_path)
        path = store.path_for(1)
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == CHECKPOINT_VERSION == 8
        payload["version"] = 7
        path.write_bytes(pickle.dumps(payload))
        assert store.load(1) is None


class TestStoreSpans:
    """Checkpoint and state-store I/O runs under ``par.store.*``
    spans, which observe and never perturb."""

    @staticmethod
    def _study(workdir, tracer):
        """A checkpointed, snapshotting serial run under ``tracer``;
        returns its events."""
        saved_tracer = get_tracer()
        saved_bus = get_event_bus()
        set_tracer(tracer)
        bus = set_event_bus(EventBus())
        try:
            run_study(SPEC2, workers=1, checkpoint_dir=workdir / "ckpt",
                      state_dir=workdir / "state", snapshot_stride=1)
        finally:
            set_event_bus(saved_bus)
            set_tracer(saved_tracer)
        return [event.to_dict() for event in bus.events]

    def test_spans_nest_under_the_study_span(self, tmp_path):
        tracer = Tracer(FakeClock())
        self._study(tmp_path, tracer)
        study, = [root for root in tracer.roots
                  if root.name == "par.study"]
        found = {(node.name, node.attrs["kind"])
                 for _, node in study.walk()
                 if node.name.startswith("par.store.")}
        assert found == {(name, kind)
                         for name in ("par.store.read", "par.store.write")
                         for kind in ("checkpoint", "snapshot")}
        assert not [node for root in tracer.roots if root is not study
                    for _, node in root.walk()
                    if node.name.startswith("par.store.")]
        table = _profile_table(tracer)
        assert "par.store.read" in table
        assert "par.store.write" in table

    def test_null_clock_reads_no_clock_and_changes_no_byte(
            self, tmp_path, monkeypatch):
        import time

        timed = self._study(tmp_path / "timed", Tracer(FakeClock()))

        def no_clock():
            raise AssertionError("clock read under NullClock")

        monkeypatch.setattr(time, "monotonic", no_clock)
        monkeypatch.setattr(time, "perf_counter", no_clock)
        bare = self._study(tmp_path / "bare", Tracer(NullClock()))
        monkeypatch.undo()
        assert bare == timed
        for kind in ("ckpt", "state"):
            timed_files = sorted((tmp_path / "timed" / kind).rglob("*"))
            bare_files = sorted((tmp_path / "bare" / kind).rglob("*"))
            assert [path.name for path in timed_files] == \
                [path.name for path in bare_files]
            for left, right in zip(timed_files, bare_files):
                if left.is_file():
                    assert left.read_bytes() == right.read_bytes()


class TestIp2asMemoRow:
    """The report's ``ip2as memo`` row sums the memo counts that
    ``cycle.done`` events carry; only the process that ran a cycle
    emits one, so restored cycles add nothing."""

    @staticmethod
    def _memo(events_path):
        """{cycle: (hits, misses)} from the ``cycle.done`` events."""
        return {event.fields["cycle"]: (event.fields["ip2as_memo_hits"],
                                        event.fields["ip2as_memo_misses"])
                for event in read_events(events_path)
                if event.kind == "cycle.done"}

    @staticmethod
    def _row(hits, misses):
        return f"ip2as memo: hits {hits:.0f}  misses {misses:.0f}"

    def test_pool_run_reports_its_cycles(self, tmp_path):
        events_path = _recorded(tmp_path / "events.jsonl", 2)
        memo = self._memo(events_path)
        assert sorted(memo) == [1, 2, 3, 4]
        hits = sum(pair[0] for pair in memo.values())
        misses = sum(pair[1] for pair in memo.values())
        assert hits > 0 and misses > 0
        assert self._row(hits, misses) in flight_report(events_path)
        assert flight_report_data(events_path)["caches"]["ip2as_memo"] \
            == {"hits": hits, "misses": misses}

    def test_resumed_run_counts_only_rerun_cycles(self, tmp_path):
        events_path = TestRestoreCount._resume(tmp_path, workers=2)
        full = self._memo(tmp_path / "full.jsonl")
        memo = self._memo(events_path)
        assert sorted(memo) == [3, 4]
        assert memo == {cycle: full[cycle] for cycle in (3, 4)}
        hits = sum(pair[0] for pair in memo.values())
        misses = sum(pair[1] for pair in memo.values())
        assert self._row(hits, misses) in flight_report(events_path)
