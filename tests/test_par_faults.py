"""Fault-injection tests for the study runner's recovery paths.

Three failure families, staged deterministically via repro.par.faults:

* **worker death / shard exceptions** — a killed worker (broken pool)
  or an exception inside a shard is retried with backoff (optionally
  subdividing the shard), and the finished study stays byte-identical
  to a serial run;
* **checkpoint/resume** — an interrupted campaign restarted with the
  same ``checkpoint_dir`` — under any worker count — runs only the
  cycles no checkpoint covers, and stale or corrupt checkpoints are
  rejected, never reused;
* **archive salvage** — a truncated/corrupted warts archive read
  tolerantly yields every intact record and tallies each skip.

CI runs this file as its own job step so regressions in recovery
fail the build, not a production campaign.
"""

import shutil

import pytest

from repro.obs import (
    EventBus,
    delta_total,
    get_event_bus,
    get_registry,
    set_event_bus,
)
from repro.par import (
    KILL,
    RAISE,
    CheckpointStore,
    FaultInjected,
    FaultPlan,
    ShardFault,
    StudyFailure,
    StudySpec,
    run_study,
    spec_hash,
)
from repro.verify.invariants import check_run
from repro.warts.format import WartsError, WartsReader, write_archive

SPEC = StudySpec(scale=0.25, seed=7, cycles=4, snapshots_per_cycle=2)


@pytest.fixture(scope="module")
def serial_run():
    return run_study(SPEC, workers=1)


def _counter_total(name, **labels):
    metric = get_registry().get(name)
    if metric is None:
        return 0
    if labels:
        return metric.value(**labels)
    return sum(value for _, value in metric.labelled_values())


def _run_recorded(*args, **kwargs):
    """``run_study`` under a fresh event bus: (run, events)."""
    saved = get_event_bus()
    bus = set_event_bus(EventBus())
    try:
        run = run_study(*args, **kwargs)
    finally:
        set_event_bus(saved)
    return run, bus.events


def _dispatched(events):
    """(first, last) of every shard dispatch, in order."""
    return [(e.fields["first"], e.fields["last"])
            for e in events if e.kind == "shard.dispatch"]


def _crash_parallel_at_cycle_3(checkpoint_dir):
    """A 2-worker run whose second shard (cycles 3-4) always fails:
    the study aborts with cycles 1-2 checkpointed."""
    plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0, 1, 2, 3))})
    with pytest.raises(StudyFailure):
        run_study(SPEC, workers=2, checkpoint_dir=checkpoint_dir,
                  fault_plan=plan, max_retries=0, backoff_base=0.0)


def _assert_identical(serial, recovered):
    """The byte-identity contract, shard scheduling notwithstanding."""
    assert [r.cycle for r in recovered.results] == \
        [r.cycle for r in serial.results]
    for expected, actual in zip(serial.results, recovered.results):
        assert expected.stats == actual.stats
        assert expected.filter_stats == actual.filter_stats
        assert expected.classification.verdicts == \
            actual.classification.verdicts
        assert expected.iotps.keys() == actual.iotps.keys()
        assert expected.metrics == actual.metrics


class TestWorkerKill:
    def test_killed_worker_is_retried_to_identical_output(
            self, serial_run):
        # The worker running cycles 3-4 dies (os._exit) before cycle
        # 4, after one cycle — the pool breaks, the shard retries,
        # output matches.
        plan = FaultPlan({4: ShardFault(kind=KILL, attempts=(0,))})
        before = _counter_total("par_shard_retries_total")
        run = run_study(SPEC, workers=2, fault_plan=plan, backoff_base=0.0)
        assert _counter_total("par_shard_retries_total") > before
        _assert_identical(serial_run, run)

    def test_kill_round_then_retry_round_keeps_worker_events(
            self, serial_run):
        # The killed round's queue is abandoned with its pool; the
        # retry round gets a fresh one, so the retried shard's
        # forwarded events all reach the parent bus.
        plan = FaultPlan({2: ShardFault(kind=KILL, attempts=(0,))})
        run, events = _run_recorded(SPEC, workers=2, fault_plan=plan,
                                    backoff_base=0.0)
        _assert_identical(serial_run, run)
        retried = [e.fields["shard"] for e in events
                   if e.kind == "shard.retry"]
        assert 0 in retried
        children = [e.fields["children"] for e in events
                    if e.kind == "shard.subdivided"
                    and e.fields["parent"] == 0][0]
        for child in children:
            beats = [e.fields["cycles_done"] for e in events
                     if e.kind == "shard.heartbeat"
                     and e.fields["shard"] == child]
            assert beats[0] == 0 and beats[-1] == 1
        done = {e.fields["cycle"] for e in events
                if e.kind == "cycle.done"}
        assert done == {1, 2, 3, 4}

    def test_shard_exception_is_retried(self, serial_run):
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0,))})
        run = run_study(SPEC, workers=2, fault_plan=plan, backoff_base=0.0)
        _assert_identical(serial_run, run)

    def test_subdivision_splits_failed_shard(self, serial_run):
        plan = FaultPlan({1: ShardFault(kind=RAISE, attempts=(0,))})
        run = run_study(SPEC, workers=2, fault_plan=plan, backoff_base=0.0)
        # Shard 1-2 failed once and came back as two one-cycle halves.
        assert len(run.shards) == 3
        ranges = sorted((s.results[0].cycle, s.results[-1].cycle)
                        for s in run.shards)
        assert ranges == [(1, 1), (2, 2), (3, 4)]
        _assert_identical(serial_run, run)

    def test_exhausted_retries_abort_the_study(self):
        plan = FaultPlan({3: ShardFault(kind=RAISE,
                                        attempts=(0, 1, 2, 3))})
        before = _counter_total("par_shards_failed_total")
        with pytest.raises(StudyFailure):
            run_study(SPEC, workers=2, fault_plan=plan, max_retries=1,
                      backoff_base=0.0)
        assert _counter_total("par_shards_failed_total") == before + 1

    def test_backoff_grows_exponentially(self, serial_run):
        delays = []
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0, 1))})
        run = run_study(SPEC, workers=2, fault_plan=plan,
                        max_retries=2, backoff_base=0.25,
                        sleep=delays.append)
        assert delays == [0.25, 0.5]
        _assert_identical(serial_run, run)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            run_study(SPEC, workers=2, max_retries=-1)


class TestCheckpointResume:
    def test_second_run_replays_from_checkpoints(self, serial_run,
                                                 tmp_path):
        before_writes = _counter_total("par_checkpoint_writes_total")
        run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        # One entry per cycle, not per shard.
        assert _counter_total("par_checkpoint_writes_total") == \
            before_writes + SPEC.cycles
        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed, events = _run_recorded(SPEC, workers=2,
                                        checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + SPEC.cycles
        assert _dispatched(events) == []
        _assert_identical(serial_run, resumed)

    def test_interrupt_then_resume_runs_only_missing_shards(
            self, serial_run, tmp_path):
        # First attempt: the shard at cycles 3-4 always fails, so the
        # study aborts — but cycles 1-2 were already checkpointed.
        _crash_parallel_at_cycle_3(tmp_path)
        store = CheckpointStore(tmp_path, SPEC)
        assert store.path_for(1).exists()
        assert store.path_for(2).exists()
        assert not store.path_for(3).exists()
        assert not store.path_for(4).exists()

        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed, events = _run_recorded(SPEC, workers=2,
                                        checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 2
        assert _dispatched(events) == [(3, 3), (4, 4)]
        _assert_identical(serial_run, resumed)

    def test_corrupt_checkpoint_is_rejected_and_rerun(
            self, serial_run, tmp_path):
        run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path, SPEC)
        store.path_for(1).write_bytes(b"not a checkpoint at all")
        before = _counter_total("par_checkpoint_rejected_total",
                                reason="corrupt")
        resumed = run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_rejected_total",
                              reason="corrupt") == before + 1
        _assert_identical(serial_run, resumed)

    def test_foreign_spec_checkpoint_is_rejected(self, tmp_path):
        run_study(SPEC, workers=2, checkpoint_dir=tmp_path)
        other_spec = StudySpec(scale=0.25, seed=8, cycles=4,
                               snapshots_per_cycle=2)
        assert spec_hash(SPEC) != spec_hash(other_spec)
        # Smuggle SPEC's checkpoint into the other spec's directory —
        # the embedded hash check must still reject it.
        source = CheckpointStore(tmp_path, SPEC)
        target = CheckpointStore(tmp_path, other_spec)
        target.directory.mkdir(parents=True, exist_ok=True)
        shutil.copy(source.path_for(1), target.path_for(1))
        before = _counter_total("par_checkpoint_rejected_total",
                                reason="spec_mismatch")
        assert target.load(1) is None
        assert _counter_total("par_checkpoint_rejected_total",
                              reason="spec_mismatch") == before + 1

    def test_serial_interrupt_resumes_per_cycle(self, serial_run,
                                                tmp_path):
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0,))})
        with pytest.raises(FaultInjected):
            run_study(SPEC, workers=1, checkpoint_dir=tmp_path,
                      fault_plan=plan)
        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed = run_study(SPEC, workers=1, checkpoint_dir=tmp_path)
        # Cycles 1 and 2 replay from disk; 3 and 4 run fresh.
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 2
        _assert_identical(serial_run, resumed)

    def test_resume_counts_only_the_probing_it_did(self, tmp_path):
        # Restored cycles contribute their LPR result metrics, not the
        # simulation they skipped, so the cache accounting of a
        # partially resumed run still reconciles.
        spec = StudySpec(scale=0.4, cycles=4)
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0,))})
        with pytest.raises(FaultInjected):
            run_study(spec, workers=1, checkpoint_dir=tmp_path,
                      fault_plan=plan)
        registry = get_registry()
        before = registry.snapshot()
        resumed = run_study(spec, workers=1, checkpoint_dir=tmp_path)
        delta = registry.diff(before, registry.snapshot())
        assert check_run(resumed, delta) == []
        assert delta_total(delta, "sim_cycles_total") == 2
        assert delta_total(delta, "pipeline_cycles_total") == 4

    def test_failed_shard_keeps_its_finished_cycles(self, tmp_path):
        # Workers persist each cycle as they finish it, so the second
        # shard (cycles 4-6) failing at cycle 6 leaves 4 and 5 behind.
        spec = StudySpec(scale=0.25, seed=7, cycles=6,
                         snapshots_per_cycle=2)
        serial = run_study(spec, workers=1,
                           checkpoint_dir=tmp_path / "serial")
        plan = FaultPlan({6: ShardFault(kind=RAISE, attempts=(0,))})
        with pytest.raises(StudyFailure):
            run_study(spec, workers=2, checkpoint_dir=tmp_path / "pool",
                      fault_plan=plan, max_retries=0, backoff_base=0.0)
        expected = CheckpointStore(tmp_path / "serial", spec)
        store = CheckpointStore(tmp_path / "pool", spec)
        for cycle in (4, 5):
            assert store.path_for(cycle).read_bytes() == \
                expected.path_for(cycle).read_bytes()
        assert not store.path_for(6).exists()
        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed, events = _run_recorded(spec, workers=2,
                                        checkpoint_dir=tmp_path / "pool")
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 5
        assert _dispatched(events) == [(6, 6)]
        _assert_identical(serial, resumed)

    def test_misfiled_entry_is_rejected(self, tmp_path):
        # An entry copied under another cycle's key is caught by the
        # key check, not restored as the wrong cycle.
        run_study(SPEC, workers=1, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path, SPEC)
        shutil.copy(store.path_for(1), store.path_for(2))
        before = _counter_total("par_checkpoint_rejected_total",
                                reason="corrupt")
        assert store.load(2) is None
        assert _counter_total("par_checkpoint_rejected_total",
                              reason="corrupt") == before + 1


class TestAnyLayoutResume:
    """Checkpoint entries are keyed per cycle, so any worker layout
    resumes from any other and only the missing cycles run."""

    def test_serial_crash_resumes_with_two_workers(self, serial_run,
                                                   tmp_path):
        plan = FaultPlan({3: ShardFault(kind=RAISE, attempts=(0,))})
        with pytest.raises(FaultInjected):
            run_study(SPEC, workers=1, checkpoint_dir=tmp_path,
                      fault_plan=plan)
        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed, events = _run_recorded(SPEC, workers=2,
                                        checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 2
        assert _dispatched(events) == [(3, 3), (4, 4)]
        _assert_identical(serial_run, resumed)

    def test_parallel_crash_resumes_serially(self, serial_run,
                                             tmp_path):
        _crash_parallel_at_cycle_3(tmp_path)
        before_hits = _counter_total("par_checkpoint_hits_total")
        before_misses = _counter_total("par_checkpoint_misses_total")
        before_writes = _counter_total("par_checkpoint_writes_total")
        resumed = run_study(SPEC, workers=1, checkpoint_dir=tmp_path)
        # The first shard's cycles (1-2) hit; only 3-4 run and are
        # written.
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 2
        assert _counter_total("par_checkpoint_misses_total") == \
            before_misses + 2
        assert _counter_total("par_checkpoint_writes_total") == \
            before_writes + 2
        _assert_identical(serial_run, resumed)

    def test_two_workers_resume_with_three(self, serial_run, tmp_path):
        _crash_parallel_at_cycle_3(tmp_path)
        before_hits = _counter_total("par_checkpoint_hits_total")
        resumed, events = _run_recorded(SPEC, workers=3,
                                        checkpoint_dir=tmp_path)
        assert _counter_total("par_checkpoint_hits_total") == \
            before_hits + 2
        # Three workers over two missing cycles: the third stays idle.
        assert _dispatched(events) == [(3, 3), (4, 4)]
        _assert_identical(serial_run, resumed)

    def test_non_contiguous_holes_run_exactly_those_cycles(
            self, serial_run, tmp_path):
        run_study(SPEC, workers=1, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path, SPEC)
        kept = {cycle: store.path_for(cycle).read_bytes()
                for cycle in (1, 3)}
        store.path_for(2).unlink()
        store.path_for(4).unlink()
        resumed, events = _run_recorded(SPEC, workers=2,
                                        checkpoint_dir=tmp_path)
        assert _dispatched(events) == [(2, 2), (4, 4)]
        _assert_identical(serial_run, resumed)
        for cycle, data in kept.items():
            assert store.path_for(cycle).read_bytes() == data
        assert store.path_for(2).exists() and store.path_for(4).exists()


class TestTruncatedArchive:
    def test_truncated_archive_salvages_intact_records(self, tmp_path):
        snapshot = _sample_traces()
        assert len(snapshot) >= 2
        path = tmp_path / "snapshot.rwts"
        write_archive(path, snapshot)
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) - 7])  # cut mid-record

        with pytest.raises(WartsError):
            with open(path, "rb") as stream:
                list(WartsReader(stream))
        with open(path, "rb") as stream:
            reader = WartsReader(stream, tolerant=True)
            salvaged = list(reader)
        assert len(salvaged) == len(snapshot) - 1
        assert reader.skipped == {"truncated_body": 1}


def _sample_traces():
    from repro.par import build_study

    simulator, _ = build_study(SPEC)
    return simulator.run_cycle(1).snapshots[0][:5]
