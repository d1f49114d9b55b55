"""Tests for the parallel study runner (repro.par).

The headline contract: a sharded run is byte-identical to a serial
one — same per-cycle results, same regenerated artifacts, same merged
metrics, same end-of-campaign simulator state — and the per-shard
metrics deltas reconcile exactly with serial totals.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import LongitudinalStudy, Study, regenerate
from repro.cli import main
from repro.core.pipeline import run_study
from repro.obs import MetricsRegistry, get_registry
from repro.par import (
    CheckpointStore,
    Shard,
    StudySpec,
    build_study,
    plan_shards,
    shard_cycles,
)
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

    def test_merged_metrics_identical(self, serial_run, parallel_run):
        merged_serial = MetricsRegistry.merge(
            r.metrics for r in serial_run.results)
        merged_parallel = MetricsRegistry.merge(
            r.metrics for r in parallel_run.results)
        assert merged_serial == merged_parallel

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

    def test_surplus_workers_split_cycles_into_blocks(self):
        shards = plan_shards(range(1, 3), 5)
        assert [(s.first, s.block) for s in shards] == [
            (1, (0, 3)), (1, (1, 3)), (1, (2, 3)),
            (2, (0, 2)), (2, (1, 2)),
        ]
        assert [s.shard_id for s in shards] == list(range(5))

    def test_single_cycle_takes_every_worker(self):
        shards = plan_shards([1], 4)
        assert [(s.first, s.last, s.block) for s in shards] == \
            [(1, 1, (index, 4)) for index in range(4)]

    def test_exact_fit_gets_no_blocks(self):
        assert all(s.block is None for s in plan_shards(range(1, 4), 3))

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
        ranged = [s for s in shards if s.block is None]
        blocked = [s for s in shards if s.block is not None]
        covered = [c for s in ranged for c in s.cycles]
        assert len(covered) == len(set(covered))
        for shard in ranged:  # contiguous, inside the missing set
            assert set(shard.cycles) <= missing
        blocks = {}
        for shard in blocked:
            assert shard.first == shard.last
            blocks.setdefault(shard.first, []).append(shard.block)
        for cycle, cycle_blocks in blocks.items():
            count = cycle_blocks[0][1]
            assert cycle_blocks == [(i, count) for i in range(count)]
        assert not set(blocks) & set(covered)
        assert set(covered) | set(blocks) == missing
        runs = len(contiguous_runs(missing))
        assert len(ranged) <= max(workers, runs)
        if runs <= workers:
            assert len(ranged) <= workers
        if not missing:
            assert shards == []
        elif workers >= len(missing):
            assert len(shards) == workers
        else:
            assert not blocked
            assert len(shards) == max(workers, runs)


class TestOversubscription:
    """workers >= cycles: every cycle becomes its own unit, and surplus
    workers split cycles into pair blocks — output stays byte-identical
    either way."""

    def test_workers_equal_cycles(self, serial_run):
        run = run_study(SPEC, workers=SPEC.cycles)
        assert len(run.shards) == SPEC.cycles
        assert all(s.block is None for s in run.shards)
        assert all(len(s.results) == 1 for s in run.shards)
        for serial, parallel in zip(serial_run.results, run.results):
            assert serial.stats == parallel.stats
            assert serial.metrics == parallel.metrics

    def test_workers_exceed_cycles(self, serial_run):
        run = run_study(SPEC, workers=SPEC.cycles * 2)
        # plan_shards keeps sharding inside the cycles: 8 workers over
        # 4 cycles = 2 pair blocks per cycle, reassembled in pair order.
        assert [s.block for s in run.shards] == [
            (cycle, index, 2)
            for cycle in range(1, SPEC.cycles + 1)
            for index in range(2)
        ]
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
    """A 1-cycle study sharded over 4 workers: pair blocks reassemble
    into byte-identical results, metrics, artifacts and checkpoints."""

    @pytest.fixture(scope="class")
    def blocked_run(self):
        return run_study(SPEC1, workers=4)

    def test_shards_are_pair_blocks(self, blocked_run):
        assert [s.block for s in blocked_run.shards] == \
            [(1, index, 4) for index in range(4)]
        assert all(s.results == [] for s in blocked_run.shards)

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
        # The assembled cycle is checkpointed under the serial key, and
        # stripping the layout-dependent cache counters makes the two
        # files byte-for-byte equal.
        assert serial_store.path_for(1).read_bytes() == \
            parallel_store.path_for(1).read_bytes()
        for index in range(4):
            assert parallel_store.path_for(1, (index, 4)).exists()

    def test_cycle_entries_byte_identical_across_layouts(self,
                                                          tmp_path):
        # Serial, 2 and 3 cycle-range workers and pair blocks (8
        # workers over 4 cycles) all write the same bytes per cycle.
        layouts = {"serial": 1, "two": 2, "three": 3, "blocks": 8}
        stores = {}
        for name, workers in layouts.items():
            run_study(SPEC, workers=workers,
                      checkpoint_dir=tmp_path / name)
            stores[name] = CheckpointStore(tmp_path / name, SPEC)
        for cycle in range(1, SPEC.cycles + 1):
            expected = stores["serial"].path_for(cycle).read_bytes()
            for name in ("two", "three", "blocks"):
                assert stores[name].path_for(cycle).read_bytes() == \
                    expected, (name, cycle)

    def test_serial_checkpoints_seed_parallel_resume(self, serial_one,
                                                     tmp_path):
        run_study(SPEC1, workers=1, checkpoint_dir=tmp_path)
        resumed = run_study(SPEC1, workers=4, checkpoint_dir=tmp_path)
        # Every pair block was satisfied by the one cycle-level
        # checkpoint the serial run wrote.
        assert [s.block for s in resumed.shards] == [None]
        serial, = serial_one.results
        restored, = resumed.results
        assert serial.stats == restored.stats
        assert serial.metrics == restored.metrics

    def test_partial_block_resume(self, serial_one, tmp_path):
        run_study(SPEC1, workers=4, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path, SPEC1)
        store.path_for(1).unlink()
        store.path_for(1, (2, 4)).unlink()
        resumed = run_study(SPEC1, workers=4, checkpoint_dir=tmp_path)
        serial, = serial_one.results
        restored, = resumed.results
        assert serial.stats == restored.stats
        assert serial.filter_stats == restored.filter_stats
        assert serial.metrics == restored.metrics


class TestCacheReconciliation:
    """The memoization counters reconcile with the probe stream."""

    def test_route_cache_counters_match_traces(self):
        registry = get_registry()
        before = registry.snapshot()
        run_study(SPEC1, workers=1)
        delta = registry.diff(before, registry.snapshot())
        traces = _total(delta, "sim_traces_total")
        assert traces > 0
        # Every trace resolves its route exactly once — a hit or a miss.
        assert _total(delta, "route_cache_hits_total") + \
            _total(delta, "route_cache_misses_total") == traces
        assert _total(delta, "hop_cache_hits_total") > 0
        assert _total(delta, "hop_cache_misses_total") > 0
        assert _total(delta, "quoted_stack_cache_hits_total") > 0


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
                     "par_pair_blocks_total"):
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


def _total(delta, name):
    """Summed value of one metric across a registry delta's labels."""
    return sum(entry["value"]
               for entry in delta.get(name, {}).get("values", []))


def _summed_drops(deltas):
    """Per-filter lsps_dropped_total totals across an iterable of
    registry deltas."""
    totals = {}
    for delta in deltas:
        for entry in delta.get("lsps_dropped_total", {}).get("values", []):
            key = entry["labels"]["filter"]
            totals[key] = totals.get(key, 0) + entry["value"]
    return totals
