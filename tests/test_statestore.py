"""Warm-start state snapshot tests (repro.par.statestore, DESIGN §10).

Four layers, inside out:

* the **closed-form allocator advance** — proven exactly equivalent to
  the allocate/release loop it replaced, across every vendor profile
  and through label-space wrap-around;
* **capture/restore** — a restored control plane is
  fingerprint-identical to the captured one (across a pickle, as the
  worker path ships it), a restored-then-replayed simulator matches a
  cold replay, and probing over restored state yields identical traces;
* the **StateStore** — nearest-snapshot semantics, plus the same trust
  model as the checkpoint store: corrupt, foreign-spec and
  wrong-version snapshots are rejected (never restored) and the search
  degrades to older snapshots, then to a cold replay;
* **whole studies** — serial and parallel runs with a state store are
  byte-identical to cold runs (results, checkpoints, end state), an
  interrupted ``--state-dir`` study resumes warm, and a pool worker
  restores only snapshots listed when its run planned the shards.
"""

import dataclasses
import pickle
import random
import shutil

import pytest

from repro.mpls.lfib import LabelAllocator, LabelAllocatorError
from repro.mpls.vendor import PROFILES, get_profile
from repro.obs import delta_total, get_event_bus, get_registry
from repro.par import (
    CheckpointStore,
    StateStore,
    StudySpec,
    build_study,
    run_study,
    spec_hash,
    state_spec_hash,
)
from repro.par import runner
from repro.par.faults import RAISE, FaultInjected, FaultPlan, ShardFault

SPEC = StudySpec(scale=0.25, seed=7, cycles=6, snapshots_per_cycle=2)


def _counter_total(name, **labels):
    metric = get_registry().get(name)
    if metric is None:
        return 0
    if labels:
        return metric.value(**labels)
    return sum(value for _, value in metric.labelled_values())


def _fingerprint(internet) -> bytes:
    return pickle.dumps(internet.capture_state())


def _assert_identical(expected, actual):
    assert [r.cycle for r in actual.results] == \
        [r.cycle for r in expected.results]
    for left, right in zip(expected.results, actual.results):
        assert left.stats == right.stats
        assert left.filter_stats == right.filter_stats
        assert left.classification.verdicts == \
            right.classification.verdicts
        assert left.metrics == right.metrics
    assert _fingerprint(expected.simulator.internet) == \
        _fingerprint(actual.simulator.internet)


# -- closed-form allocator advance ------------------------------------------


def _allocator_state(allocator):
    return (allocator._next, allocator.allocated_total,
            tuple(sorted(allocator._in_use)))


def _loop_reference(allocator, count):
    """The O(count) allocate/release loop ``advance`` replaces."""
    for _ in range(count):
        allocator.release(allocator.allocate())


def _tiny_profile(label_min=16, label_max=27):
    """A 12-label space so wrap-around happens within a few calls."""
    return dataclasses.replace(get_profile("cisco"),
                               label_min=label_min, label_max=label_max)


class TestClosedFormAdvance:
    @pytest.mark.parametrize("vendor", sorted(PROFILES))
    def test_matches_loop_across_vendor_profiles(self, vendor):
        profile = get_profile(vendor)
        rng = random.Random(hash(vendor) & 0xFFFF)
        for trial in range(25):
            closed = LabelAllocator(profile,
                                    start_offset=rng.randrange(5000))
            held = [closed.allocate()
                    for _ in range(rng.randrange(0, 12))]
            for label in rng.sample(held, k=len(held) // 3):
                closed.release(label)
            reference = LabelAllocator(profile)
            reference.restore(closed.capture())
            count = rng.randrange(1, 400)
            closed.advance(count)
            _loop_reference(reference, count)
            assert _allocator_state(closed) == \
                _allocator_state(reference), (vendor, trial, count)

    def test_matches_loop_through_wraparound(self):
        profile = _tiny_profile()
        space = profile.label_space()
        rng = random.Random(0x11AB)
        for trial in range(150):
            closed = LabelAllocator(profile,
                                    start_offset=rng.randrange(40))
            held = [closed.allocate()
                    for _ in range(rng.randrange(0, space - 1))]
            for label in rng.sample(held,
                                    k=rng.randrange(0, len(held) + 1)):
                closed.release(label)
            reference = LabelAllocator(profile)
            reference.restore(closed.capture())
            # Up to 4x the label space: several full wraps of the
            # free-label cycle.
            count = rng.randrange(1, 4 * space)
            closed.advance(count)
            _loop_reference(reference, count)
            assert _allocator_state(closed) == \
                _allocator_state(reference), (trial, count)

    def test_exhausted_space_raises(self):
        allocator = LabelAllocator(_tiny_profile())
        for _ in range(allocator.profile.label_space()):
            allocator.allocate()
        with pytest.raises(LabelAllocatorError):
            allocator.advance(1)

    def test_nonpositive_count_is_a_noop(self):
        allocator = LabelAllocator(_tiny_profile(), start_offset=3)
        allocator.allocate()
        before = _allocator_state(allocator)
        allocator.advance(0)
        allocator.advance(-5)
        assert _allocator_state(allocator) == before


# -- capture/restore ---------------------------------------------------------


@pytest.fixture(scope="module")
def warmed():
    """A simulator advanced through 4 of SPEC's cycles."""
    simulator, _ = build_study(SPEC)
    simulator.fast_forward(1, 4)
    return simulator


class TestCaptureRestore:
    def test_round_trip_is_fingerprint_identical(self, warmed):
        # The worker path ships snapshots through pickle; restoring
        # the unpickled state must reproduce the capture exactly.
        state = pickle.loads(pickle.dumps(
            warmed.internet.capture_state()))
        fresh, _ = build_study(SPEC)
        fresh.internet.restore_state(state)
        assert _fingerprint(fresh.internet) == \
            _fingerprint(warmed.internet)

    def test_restore_plus_tail_matches_cold_replay(self, warmed):
        state = pickle.loads(pickle.dumps(
            warmed.internet.capture_state()))
        restored, _ = build_study(SPEC)
        restored.internet.restore_state(state)
        restored.fast_forward(5, SPEC.cycles)
        cold, _ = build_study(SPEC)
        cold.fast_forward(1, SPEC.cycles)
        assert _fingerprint(restored.internet) == \
            _fingerprint(cold.internet)

    def test_probes_over_restored_state_are_identical(self, warmed):
        state = pickle.loads(pickle.dumps(
            warmed.internet.capture_state()))
        restored, _ = build_study(SPEC)
        restored.internet.restore_state(state)
        cold, _ = build_study(SPEC)
        cold.fast_forward(1, 4)
        warm_data = restored.run_cycle(5)
        cold_data = cold.run_cycle(5)
        assert pickle.dumps(warm_data.snapshots) == \
            pickle.dumps(cold_data.snapshots)

    def test_foreign_shape_is_rejected(self, warmed):
        state = warmed.internet.capture_state()
        other, _ = build_study(dataclasses.replace(SPEC, scale=0.35))
        with pytest.raises(ValueError):
            other.internet.restore_state(state)

    def test_foreign_version_is_rejected(self, warmed):
        state = dict(warmed.internet.capture_state())
        state["version"] = 99
        fresh, _ = build_study(SPEC)
        with pytest.raises(ValueError):
            fresh.internet.restore_state(state)


class TestSyncMemoization:
    def _mpls_network(self, simulator):
        for asn in sorted(simulator.internet.networks):
            network = simulator.internet.networks[asn]
            if network.labels is not None and network._te_active:
                return network
        pytest.skip("scenario has no TE-active AS")

    def test_unchanged_policy_skips_reconciliation(self, warmed):
        network = self._mpls_network(warmed)
        before_sessions = network.rsvp.capture_sessions()
        before_labels = network.labels.capture()
        signature = network._te_signature
        assert signature is not None
        network.apply_policy(network.policy)
        assert network._te_signature == signature
        assert network.rsvp.capture_sessions() == before_sessions
        assert network.labels.capture() == before_labels

    def test_changed_signature_still_reconciles(self, warmed):
        network = self._mpls_network(warmed)
        policy = network.policy
        changed = dataclasses.replace(
            policy, te_pair_fraction=policy.te_pair_fraction / 2)
        active_before = dict(network._te_active)
        network.apply_policy(changed)
        assert network._te_signature == (
            changed.te_pair_fraction, changed.te_tunnels_per_pair)
        assert network._te_active != active_before
        # Restore the original configuration for the other tests.
        network.apply_policy(policy)
        assert network._te_active == active_before

    def test_disable_clears_signatures(self, warmed):
        state = warmed.internet.capture_state()
        network = self._mpls_network(warmed)
        policy = network.policy
        network.apply_policy(dataclasses.replace(policy, enabled=False))
        assert network._te_signature is None
        assert network._sr_signature is None
        warmed.internet.restore_state(state)


# -- the store ---------------------------------------------------------------


class TestStateStore:
    def _seeded(self, tmp_path, cycles=(2, 4)):
        simulator, _ = build_study(SPEC)
        store = StateStore(tmp_path, SPEC)
        cursor = 0
        for cycle in cycles:
            simulator.fast_forward(cursor + 1, cycle)
            cursor = cycle
            store.save(cycle, simulator.internet.capture_state())
        return store

    def test_save_load_round_trip(self, tmp_path):
        store = self._seeded(tmp_path)
        assert store.cycles() == [2, 4]
        assert store.load(3) is None
        state = store.load(2)
        simulator, _ = build_study(SPEC)
        simulator.internet.restore_state(state)
        cold, _ = build_study(SPEC)
        cold.fast_forward(1, 2)
        assert _fingerprint(simulator.internet) == \
            _fingerprint(cold.internet)

    def test_load_nearest_prefers_newest(self, tmp_path):
        store = self._seeded(tmp_path)
        cycle, _state = store.load_nearest(5)
        assert cycle == 4
        cycle, _state = store.load_nearest(3)
        assert cycle == 2

    def test_load_nearest_respects_after(self, tmp_path):
        store = self._seeded(tmp_path)
        assert store.load_nearest(5, after=4) is None
        cycle, _state = store.load_nearest(4, after=2)
        assert cycle == 4

    def test_fruitless_search_counts_a_miss(self, tmp_path):
        store = self._seeded(tmp_path)
        before = _counter_total("state_snapshot_misses_total")
        assert store.load_nearest(1) is None
        assert _counter_total("state_snapshot_misses_total") == \
            before + 1

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        store = self._seeded(tmp_path)
        store.path_for(4).write_bytes(b"not a snapshot at all")
        before = _counter_total("state_snapshot_rejected_total",
                                reason="corrupt")
        cycle, state = store.load_nearest(5)
        assert cycle == 2 and state is not None
        assert _counter_total("state_snapshot_rejected_total",
                              reason="corrupt") == before + 1

    def test_foreign_spec_snapshot_is_rejected(self, tmp_path):
        store = self._seeded(tmp_path)
        other_spec = dataclasses.replace(SPEC, seed=8)
        assert state_spec_hash(SPEC) != state_spec_hash(other_spec)
        # Smuggle SPEC's snapshot into the other spec's directory —
        # the embedded hash check must still reject it.
        target = StateStore(tmp_path, other_spec)
        target.directory.mkdir(parents=True, exist_ok=True)
        shutil.copy(store.path_for(2), target.path_for(2))
        before = _counter_total("state_snapshot_rejected_total",
                                reason="spec_mismatch")
        assert target.load(2) is None
        assert _counter_total("state_snapshot_rejected_total",
                              reason="spec_mismatch") == before + 1

    def test_older_version_snapshot_is_rejected(self, tmp_path):
        store = self._seeded(tmp_path)
        path = store.path_for(2)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 0
        path.write_bytes(pickle.dumps(payload))
        before = _counter_total("state_snapshot_rejected_total",
                                reason="version")
        assert store.load(2) is None
        assert _counter_total("state_snapshot_rejected_total",
                              reason="version") == before + 1

    def test_state_hash_is_not_the_checkpoint_hash(self):
        # The two stores version independently; sharing a directory
        # must never alias their files.
        assert state_spec_hash(SPEC) != spec_hash(SPEC)


# -- whole studies -----------------------------------------------------------


@pytest.fixture(scope="module")
def cold_run():
    return run_study(SPEC, workers=1)


class TestWarmStudies:
    def test_serial_warm_identical_to_cold(self, cold_run, tmp_path):
        warm = run_study(SPEC, workers=1, state_dir=tmp_path,
                         snapshot_stride=2)
        _assert_identical(cold_run, warm)
        assert StateStore(tmp_path, SPEC).cycles() == [2, 4, 6]

    def test_parallel_warm_identical_to_cold(self, cold_run, tmp_path):
        first = run_study(SPEC, workers=3, state_dir=tmp_path,
                          snapshot_stride=2)
        _assert_identical(cold_run, first)
        # The store was empty when the first run planned, so its late
        # shards replay cold; each worker writes the stride snapshot
        # of the cycles it ran.
        late = [s for s in first.shards if s.results[0].cycle > 1]
        assert len(late) == 2 and all(
            s.replayed_cycles == s.results[0].cycle - 1 for s in late)
        assert all(delta_total(s.metrics_delta,
                               "state_snapshot_writes_total") == 1
                   for s in first.shards)
        assert StateStore(tmp_path, SPEC).cycles() == [2, 4, 6]
        # A second run over the same directory warm-starts.
        second = run_study(SPEC, workers=3, state_dir=tmp_path,
                           snapshot_stride=2)
        _assert_identical(cold_run, second)
        late = [s for s in second.shards if s.results[0].cycle > 1]
        assert len(late) == 2 and all(
            s.replayed_cycles < s.results[0].cycle - 1 for s in late)

    def test_workers_restore_only_snapshots_listed_at_plan_time(
            self, cold_run, tmp_path):
        simulator, _ = build_study(SPEC)
        simulator.fast_forward(1, 2)
        store = StateStore(tmp_path, SPEC)
        store.save(2, simulator.internet.capture_state())
        # Cycle 5 fails once, so its shard is retried as cycles 5 and
        # 6 in a second pool round — after its siblings wrote the
        # snapshots of cycles 1-4.  The retries still restore the
        # snapshot of cycle 2, the only one listed at plan time.
        plan = FaultPlan({5: ShardFault(kind=RAISE, attempts=(0,))})
        run = run_study(SPEC, workers=3, state_dir=tmp_path,
                        snapshot_stride=1, fault_plan=plan,
                        backoff_base=0.0)
        _assert_identical(cold_run, run)
        replayed = {s.results[0].cycle: s.replayed_cycles
                    for s in run.shards}
        assert replayed == {1: 0, 3: 0, 5: 2, 6: 3}
        assert store.cycles() == [1, 2, 3, 4, 5, 6]

    def test_pool_dispatches_before_the_parent_builds(self, tmp_path,
                                                      monkeypatch):
        calls = []

        def recording_build(spec):
            calls.append("build")
            return build_study(spec)

        def recording_bus(event):
            if event.kind == "shard.dispatch":
                calls.append("dispatch")

        monkeypatch.setattr(runner, "build_study", recording_build)
        unsubscribe = get_event_bus().subscribe(recording_bus)
        try:
            run_study(dataclasses.replace(SPEC, cycles=2), workers=2,
                      state_dir=tmp_path)
        finally:
            unsubscribe()
        # Forked workers build in their own processes; the parent
        # builds once, after it dispatched every shard.
        assert calls == ["dispatch", "dispatch", "build"]

    def test_checkpoints_byte_identical_warm_vs_cold(self, tmp_path):
        run_study(SPEC, workers=1, checkpoint_dir=tmp_path / "cold")
        run_study(SPEC, workers=1, checkpoint_dir=tmp_path / "warm",
                  state_dir=tmp_path / "state", snapshot_stride=2)
        cold_store = CheckpointStore(tmp_path / "cold", SPEC)
        warm_store = CheckpointStore(tmp_path / "warm", SPEC)
        for cycle in range(1, SPEC.cycles + 1):
            assert cold_store.path_for(cycle).read_bytes() == \
                warm_store.path_for(cycle).read_bytes()

    def test_interrupted_serial_study_resumes_warm(self, cold_run,
                                                   tmp_path):
        plan = FaultPlan({5: ShardFault(kind=RAISE, attempts=(0,))})
        with pytest.raises(FaultInjected):
            run_study(SPEC, workers=1,
                      checkpoint_dir=tmp_path / "ckpt",
                      state_dir=tmp_path / "state", snapshot_stride=2,
                      fault_plan=plan)
        assert StateStore(tmp_path / "state", SPEC).cycles() == [2, 4]
        before_hits = _counter_total("state_snapshot_hits_total")
        resumed = run_study(SPEC, workers=1,
                            checkpoint_dir=tmp_path / "ckpt",
                            state_dir=tmp_path / "state",
                            snapshot_stride=2)
        # Cycles 1-4 replay from checkpoints without touching the
        # simulator; the jump to probing cycle 5 restores the cycle-4
        # snapshot instead of replaying cycles 1-4.
        assert _counter_total("state_snapshot_hits_total") > \
            before_hits
        _assert_identical(cold_run, resumed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejected_snapshot_is_rewritten(self, tmp_path, workers):
        spec = dataclasses.replace(SPEC, cycles=4)

        def study():
            run_study(spec, workers=workers, state_dir=tmp_path,
                      snapshot_stride=2)

        study()
        store = StateStore(tmp_path, spec)
        original = store.path_for(2).read_bytes()
        store.path_for(2).write_bytes(b"not a snapshot at all")
        study()
        assert store.load(2) is not None
        assert store.path_for(2).read_bytes() == original
        before = _counter_total("state_snapshot_rejected_total")
        study()
        assert _counter_total("state_snapshot_rejected_total") == before

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            run_study(SPEC, workers=1, snapshot_stride=0)
