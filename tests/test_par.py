"""Tests for the parallel study runner (repro.par).

The headline contract: a sharded run is byte-identical to a serial
one — same per-cycle results, same regenerated artifacts, same merged
metrics, same end-of-campaign simulator state — and the per-shard
metrics deltas reconcile exactly with serial totals.
"""

import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import LongitudinalStudy, Study, regenerate
from repro.cli import main
from repro.core.pipeline import LprPipeline
from repro.obs import MetricsRegistry, delta_total, get_registry
from repro.par import (
    CheckpointStore,
    Shard,
    StudySpec,
    build_study,
    plan_shards,
    run_study,
    shard_cycles,
)
from repro.par.checkpoint import CHECKPOINT_VERSION
from repro.par.shard import contiguous_runs

SPEC = StudySpec(scale=0.25, seed=7, cycles=4, snapshots_per_cycle=2)
SPEC1 = StudySpec(scale=0.25, seed=7, cycles=1, snapshots_per_cycle=2)


@pytest.fixture(scope="module")
def serial_run():
    return run_study(SPEC, workers=1)


@pytest.fixture(scope="module")
def parallel_run():
    return run_study(SPEC, workers=2)


@pytest.fixture(scope="module")
def serial_one():
    return run_study(SPEC1, workers=1)


class TestShardCycles:
    def test_even_split(self):
        assert shard_cycles(1, 8, 2) == [
            Shard(shard_id=0, first=1, last=4),
            Shard(shard_id=1, first=5, last=8),
        ]

    def test_remainder_goes_to_earlier_shards(self):
        assert shard_cycles(1, 8, 3) == [
            Shard(shard_id=0, first=1, last=3),
            Shard(shard_id=1, first=4, last=6),
            Shard(shard_id=2, first=7, last=8),
        ]

    def test_more_shards_than_cycles(self):
        shards = shard_cycles(1, 2, 5)
        assert len(shards) == 2
        assert all(len(shard) == 1 for shard in shards)

    def test_blocks_are_contiguous_and_cover_the_range(self):
        for count in range(1, 7):
            shards = shard_cycles(3, 17, count)
            cycles = [c for shard in shards for c in shard.cycles]
            assert cycles == list(range(3, 18))

    def test_empty_range(self):
        assert shard_cycles(5, 4, 3) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_cycles(1, 8, 0)

    def test_shard_len_and_cycles(self):
        shard = Shard(shard_id=0, first=4, last=6)
        assert len(shard) == 3
        assert list(shard.cycles) == [4, 5, 6]


class TestByteIdentity:
    def test_results_ordered_by_cycle(self, parallel_run):
        assert [r.cycle for r in parallel_run.results] == [1, 2, 3, 4]

    def test_cycle_results_identical(self, serial_run, parallel_run):
        for serial, parallel in zip(serial_run.results,
                                    parallel_run.results):
            assert serial.stats == parallel.stats
            assert serial.filter_stats == parallel.filter_stats
            assert serial.classification.verdicts == \
                parallel.classification.verdicts
            assert serial.iotps.keys() == parallel.iotps.keys()

    def test_cycle_metrics_deltas_identical(self, serial_run,
                                            parallel_run):
        for serial, parallel in zip(serial_run.results,
                                    parallel_run.results):
            assert serial.metrics == parallel.metrics

    @pytest.mark.parametrize("artifact", [
        "table1", "table2", "fig5a", "fig5b", "fig7", "fig13",
    ])
    def test_artifacts_byte_identical(self, serial_run, parallel_run,
                                      artifact):
        serial = _study(serial_run)
        parallel = _study(parallel_run)
        assert str(regenerate(serial, artifact)) == \
            str(regenerate(parallel, artifact))

    def test_post_study_artifact_byte_identical(self, serial_run,
                                                parallel_run):
        # Fig 6 re-runs a cycle on top of the campaign's end state, so
        # it only matches when the parallel parent simulator was
        # fast-forwarded to the same control-plane state.
        assert str(regenerate(_study(serial_run), "fig6")) == \
            str(regenerate(_study(parallel_run), "fig6"))

    def test_simulator_end_state_identical(self, serial_run,
                                           parallel_run):
        assert _state_fingerprint(serial_run.simulator.internet) == \
            _state_fingerprint(parallel_run.simulator.internet)


class TestShardReconciliation:
    def test_shard_accounting(self, parallel_run):
        assert [s.shard_id for s in parallel_run.shards] == [0, 1]
        assert sum(len(s.results) for s in parallel_run.shards) == \
            SPEC.cycles
        # Shard 0 starts at cycle 1 (no replay); shard 1 replays
        # everything before its first cycle.
        assert parallel_run.shards[0].replayed_cycles == 0
        assert parallel_run.shards[1].replayed_cycles == 2

    def test_dropped_lsp_deltas_sum_to_serial_totals(self, serial_run,
                                                     parallel_run):
        serial_drops = _summed_drops(
            r.metrics for r in serial_run.results)
        shard_drops = _summed_drops(
            s.metrics_delta for s in parallel_run.shards)
        assert shard_drops == serial_drops
        assert shard_drops  # the study drops LSPs in every filter run

    def test_serial_run_has_no_shards(self, serial_run):
        assert serial_run.shards == []


class TestPlanShards:
    def test_few_workers_delegates_to_shard_cycles(self):
        assert plan_shards(range(1, 9), 3) == shard_cycles(1, 8, 3)
        assert plan_shards(range(1, 5), 4) == shard_cycles(1, 4, 4)

    def test_surplus_workers_stay_idle(self):
        # A shard is at least one whole cycle: five workers over two
        # cycles plan two one-cycle shards.
        shards = plan_shards(range(1, 3), 5)
        assert [(s.shard_id, s.first, s.last) for s in shards] == \
            [(0, 1, 1), (1, 2, 2)]
        assert plan_shards([1], 4) == [Shard(shard_id=0, first=1,
                                             last=1)]

    def test_exact_fit_gets_no_blocks(self):
        assert [(s.first, s.last) for s in plan_shards(range(1, 4), 3)] \
            == [(1, 1), (2, 2), (3, 3)]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            plan_shards(range(1, 5), 0)

    def test_empty_range(self):
        assert plan_shards([], 3) == []

    def test_resume_plans_only_the_missing_run(self):
        # A serial run that crashed at cycle 13 of 24, resumed on 2
        # workers: the 12 missing cycles split in half.
        assert [(s.first, s.last) for s in
                plan_shards(range(13, 25), 2)] == [(13, 18), (19, 24)]

    def test_spare_workers_go_to_the_longest_run(self):
        shards = plan_shards([2, 3, 4, 5, 6, 7, 9], 3)
        assert [(s.first, s.last) for s in shards] == \
            [(2, 4), (5, 7), (9, 9)]

    def test_more_runs_than_workers_gives_one_shard_per_run(self):
        shards = plan_shards([1, 3, 5, 7, 8], 2)
        assert [(s.first, s.last) for s in shards] == \
            [(1, 1), (3, 3), (5, 5), (7, 8)]

    def test_contiguous_runs(self):
        assert contiguous_runs([5, 1, 2, 3, 5, 9]) == \
            [(1, 3), (5, 5), (9, 9)]
        assert contiguous_runs([]) == []

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(1, 40), max_size=30),
           st.integers(1, 12))
    def test_plan_tiles_the_missing_cycles(self, missing, workers):
        shards = plan_shards(sorted(missing), workers)
        # Deterministic, and a function of the cycle *set* only.
        assert shards == plan_shards(sorted(missing), workers)
        assert shards == plan_shards(sorted(missing, reverse=True),
                                     workers)
        assert [s.shard_id for s in shards] == list(range(len(shards)))
        covered = [c for s in shards for c in s.cycles]
        assert covered == sorted(missing)  # each cycle once, in order
        for shard in shards:  # contiguous, inside the missing set
            assert set(shard.cycles) <= missing
        runs = len(contiguous_runs(missing))
        if not missing:
            assert shards == []
        elif workers >= len(missing):
            assert len(shards) == len(missing)
        else:
            assert len(shards) == max(workers, runs)


class TestOversubscription:
    """workers >= cycles: every cycle becomes its own shard and surplus
    workers stay idle — output stays byte-identical either way."""

    def test_workers_equal_cycles(self, serial_run):
        run = run_study(SPEC, workers=SPEC.cycles)
        assert len(run.shards) == SPEC.cycles
        assert all(len(s.results) == 1 for s in run.shards)
        for serial, parallel in zip(serial_run.results, run.results):
            assert serial.stats == parallel.stats
            assert serial.metrics == parallel.metrics

    def test_workers_exceed_cycles(self, serial_run):
        run = run_study(SPEC, workers=SPEC.cycles * 2)
        # 8 workers over 4 cycles: one one-cycle shard per cycle.
        assert [[r.cycle for r in s.results] for s in run.shards] == \
            [[cycle] for cycle in range(1, SPEC.cycles + 1)]
        assert [r.cycle for r in run.results] == \
            [r.cycle for r in serial_run.results]
        for serial, parallel in zip(serial_run.results, run.results):
            assert serial.stats == parallel.stats
            assert serial.filter_stats == parallel.filter_stats
            assert serial.classification.verdicts == \
                parallel.classification.verdicts
            assert serial.metrics == parallel.metrics

    def test_shard_cycles_never_returns_empty_shards(self):
        for workers in range(1, 12):
            shards = shard_cycles(1, SPEC.cycles, workers)
            assert all(len(shard) >= 1 for shard in shards)
            assert len(shards) == min(workers, SPEC.cycles)


class TestIntraCycle:
    """A 1-cycle study over 4 workers runs as one pool shard (a cycle
    is never split), with byte-identical results, metrics, artifacts
    and checkpoints."""

    @pytest.fixture(scope="class")
    def blocked_run(self):
        return run_study(SPEC1, workers=4)

    def test_results_byte_identical(self, serial_one, blocked_run):
        serial, = serial_one.results
        parallel, = blocked_run.results
        assert serial.stats == parallel.stats
        assert serial.filter_stats == parallel.filter_stats
        assert serial.iotps.keys() == parallel.iotps.keys()
        assert serial.classification.verdicts == \
            parallel.classification.verdicts
        assert serial.metrics == parallel.metrics

    def test_simulator_end_state_identical(self, serial_one,
                                           blocked_run):
        assert _state_fingerprint(serial_one.simulator.internet) == \
            _state_fingerprint(blocked_run.simulator.internet)

    @pytest.mark.parametrize("artifact", ["table1", "fig7"])
    def test_artifacts_byte_identical(self, serial_one, blocked_run,
                                      artifact):
        assert str(regenerate(_study(serial_one), artifact)) == \
            str(regenerate(_study(blocked_run), artifact))

    def test_checkpoints_byte_identical_across_layouts(self, tmp_path):
        run_study(SPEC1, workers=1, checkpoint_dir=tmp_path / "serial")
        run_study(SPEC1, workers=4,
                  checkpoint_dir=tmp_path / "parallel")
        serial_store = CheckpointStore(tmp_path / "serial", SPEC1)
        parallel_store = CheckpointStore(tmp_path / "parallel", SPEC1)
        # Dropping the execution metrics makes the two files
        # byte-for-byte equal.
        assert serial_store.path_for(1).read_bytes() == \
            parallel_store.path_for(1).read_bytes()

    def test_cycle_entries_byte_identical_across_layouts(self,
                                                          tmp_path):
        # Serial, 2, 3 and 8 workers (more than the 4 cycles) all
        # write the same bytes per cycle.
        layouts = {"serial": 1, "two": 2, "three": 3, "eight": 8}
        stores = {}
        for name, workers in layouts.items():
            run_study(SPEC, workers=workers,
                      checkpoint_dir=tmp_path / name)
            stores[name] = CheckpointStore(tmp_path / name, SPEC)
        for cycle in range(1, SPEC.cycles + 1):
            expected = stores["serial"].path_for(cycle).read_bytes()
            for name in ("two", "three", "eight"):
                assert stores[name].path_for(cycle).read_bytes() == \
                    expected, (name, cycle)

    def test_serial_checkpoints_seed_parallel_resume(self, serial_one,
                                                     tmp_path):
        run_study(SPEC1, workers=1, checkpoint_dir=tmp_path)
        resumed = run_study(SPEC1, workers=4, checkpoint_dir=tmp_path)
        # The one checkpoint the serial run wrote satisfies the study:
        # no shard runs.
        assert resumed.shards == []
        serial, = serial_one.results
        restored, = resumed.results
        assert serial.stats == restored.stats
        assert serial.metrics == restored.metrics


class TestRunStudyArguments:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError):
            run_study(SPEC, workers=workers)

    @staticmethod
    def _count_snapshots(monkeypatch, **options):
        """(run, registry snapshots taken) of an in-process run."""
        snapshots = []
        original = MetricsRegistry.snapshot

        def counted(self):
            snapshots.append(None)
            return original(self)

        monkeypatch.setattr(MetricsRegistry, "snapshot", counted)
        run = run_study(SPEC1, workers=1, **options)
        monkeypatch.undo()
        return run, len(snapshots)

    def test_storeless_in_process_run_adds_no_overhead(self,
                                                       monkeypatch):
        # The in-process executor without a checkpoint store pickles
        # nothing and takes no registry snapshot beyond the pipeline's
        # own per-cycle window.
        def no_pickle(*args, **kwargs):
            raise AssertionError("the in-process executor pickled")

        monkeypatch.setattr(pickle, "dumps", no_pickle)
        monkeypatch.setattr(pickle, "dump", no_pickle)
        run, snapshots = self._count_snapshots(monkeypatch)
        assert [r.cycle for r in run.results] == [1]
        assert snapshots == 2 * SPEC1.cycles

    def test_checkpointed_in_process_run_takes_one_window(
            self, monkeypatch, tmp_path):
        # A checkpoint entry is the pipeline's window, already on the
        # result: checkpointing adds no registry snapshot.
        run, snapshots = self._count_snapshots(
            monkeypatch, checkpoint_dir=tmp_path)
        assert [r.cycle for r in run.results] == [1]
        assert CheckpointStore(tmp_path, SPEC1).path_for(1).exists()
        assert snapshots == 2 * SPEC1.cycles


class TestExecutionMetrics:
    """A metric declared ``execution=True`` never reaches checkpoint
    bytes, whatever the layout; a result metric does, as labels and
    values without its help text."""

    SPEC2 = StudySpec(scale=0.25, seed=7, cycles=2, snapshots_per_cycle=2)

    @classmethod
    def _entries(cls, path, workers):
        run_study(cls.SPEC2, workers=workers, checkpoint_dir=path)
        store = CheckpointStore(path, cls.SPEC2)
        return [store.path_for(cycle).read_bytes()
                for cycle in range(1, cls.SPEC2.cycles + 1)]

    @pytest.fixture(scope="class")
    def bare(self, tmp_path_factory):
        return self._entries(tmp_path_factory.mktemp("bare"), 1)

    @pytest.fixture
    def bump(self, monkeypatch):
        """Register a counter and bump it inside every cycle's pipeline
        window (:meth:`LprPipeline.process_snapshots` runs its
        follow-up step there)."""
        registry = get_registry()
        names = []

        def install(name, execution):
            counter = registry.counter(name, "test-only",
                                       execution=execution)
            names.append(name)
            original = LprPipeline.follow_up_signatures

            def follow_up_signatures(self, snapshots):
                counter.inc(len(snapshots))
                return original(self, snapshots)

            monkeypatch.setattr(LprPipeline, "follow_up_signatures",
                                follow_up_signatures)

        yield install
        for name in names:
            registry._metrics.pop(name, None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_execution_counter_leaves_bytes_identical(
            self, bare, bump, tmp_path, workers):
        bump("test_execution_probe_total", execution=True)
        assert self._entries(tmp_path, workers) == bare

    @pytest.mark.parametrize("workers", [1, 2])
    def test_result_counter_changes_bytes(self, bare, bump, tmp_path,
                                          workers):
        bump("test_result_probe_total", execution=False)
        entries = self._entries(tmp_path, workers)
        assert all(mine != theirs for mine, theirs in zip(entries, bare))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_help_text_leaves_bytes_identical(self, bare, tmp_path,
                                              monkeypatch, workers):
        for metric in get_registry().metrics():
            monkeypatch.setattr(metric, "help",
                                f"reworded: {metric.help}")
        digests = [hashlib.sha256(entry).hexdigest()
                   for entry in self._entries(tmp_path, workers)]
        assert digests == [hashlib.sha256(entry).hexdigest()
                           for entry in bare]

    def test_entry_holds_the_result_alone(self, bare):
        assert CHECKPOINT_VERSION == 8
        metrics = get_registry().metrics()
        for entry in bare:
            assert sorted(pickle.loads(entry)) == [
                "cycle", "result", "spec_hash", "version"]
            for metric in metrics:
                if metric.help:
                    assert metric.help.encode() not in entry, metric.name
                if metric.execution:
                    assert metric.name.encode() not in entry, metric.name


class TestCacheReconciliation:
    """The memoization counters reconcile with the probe stream."""

    def test_route_cache_counters_match_traces(self):
        registry = get_registry()
        before = registry.snapshot()
        run_study(SPEC1, workers=1)
        delta = registry.diff(before, registry.snapshot())
        traces = delta_total(delta, "sim_traces_total")
        assert traces > 0
        # Every trace resolves its route exactly once — a hit or a miss.
        assert delta_total(delta, "route_cache_hits_total") + \
            delta_total(delta, "route_cache_misses_total") == traces
        assert delta_total(delta, "hop_cache_hits_total") > 0
        assert delta_total(delta, "hop_cache_misses_total") > 0
        assert delta_total(delta, "quoted_stack_cache_hits_total") > 0


class TestFastForward:
    def test_fast_forward_matches_run_cycles(self):
        probed, _ = build_study(SPEC)
        for cycle in (1, 2):
            probed.run_cycle(cycle)
        replayed, _ = build_study(SPEC)
        replayed.fast_forward(1, 2)
        assert _state_fingerprint(probed.internet) == \
            _state_fingerprint(replayed.internet)

    def test_empty_fast_forward_is_a_no_op(self):
        simulator, _ = build_study(SPEC)
        before = _state_fingerprint(simulator.internet)
        simulator.fast_forward(1, 0)
        assert _state_fingerprint(simulator.internet) == before


class TestCliWorkers:
    def test_workers_flag_accepted(self, capsys):
        code = main(["study", "--cycles", "2", "--scale", "0.25",
                     "--workers", "2", "--artifacts", "table1"])
        assert code == 0
        assert "== table1 ==" in capsys.readouterr().out

    def test_workers_must_be_positive(self, capsys):
        code = main(["study", "--cycles", "2", "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_metrics_out_exports_cache_counters(self, tmp_path,
                                                capsys):
        out = tmp_path / "metrics.json"
        code = main(["--metrics-out", str(out), "study", "--cycles",
                     "1", "--scale", "0.25", "--workers", "2",
                     "--artifacts", "table1"])
        assert code == 0
        capsys.readouterr()
        metrics = json.loads(out.read_text())["metrics"]
        for name in ("route_cache_hits_total",
                     "route_cache_misses_total",
                     "hop_cache_hits_total", "hop_cache_misses_total",
                     "quoted_stack_cache_hits_total",
                     "quoted_stack_cache_misses_total",
                     "par_shard_cycles_total"):
            assert name in metrics, name


def _study(run):
    return Study(simulator=run.simulator, pipeline=run.pipeline,
                 longitudinal=LongitudinalStudy(run.results))


def _state_fingerprint(internet):
    """Every label allocator's position + every TE session's labels."""
    state = []
    for asn in sorted(internet.networks):
        network = internet.networks[asn]
        if network.labels is None:
            state.append((asn, None))
            continue
        allocators = tuple(
            (router, alloc._next, alloc.allocated_total,
             tuple(sorted(alloc._in_use)))
            for router, alloc in sorted(network.labels.allocators.items())
        )
        sessions = tuple(sorted(
            (str(session.fec), tuple(sorted(session.labels.items())))
            for session in network.rsvp._sessions.values()
        )) if network.rsvp else ()
        state.append((asn, allocators, sessions))
    return state


def _summed_drops(deltas):
    """Per-filter lsps_dropped_total totals across an iterable of
    registry deltas."""
    totals = {}
    for delta in deltas:
        for entry in delta.get("lsps_dropped_total", {}).get("values", []):
            key = entry["labels"]["filter"]
            totals[key] = totals.get(key, 0) + entry["value"]
    return totals
