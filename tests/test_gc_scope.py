"""The GC-quiet bulk scope (``repro.traces.gc_paused``).

Bulk trace work — a study's cycles, ``read_archive`` /
``salvage_archive`` and ``LprPipeline.process_snapshots`` — runs with
CPython's cyclic collector paused.  That is only safe because those
paths build no reference cycles, and only correct if the collector
comes back on however the scope ends and stays off for a caller that
turned it off.  On exit the scope hands its survivors to the oldest
generation, so no young pass walks them afterwards, without leaving
anything frozen or touching a caller's own frozen set.
"""

import gc
from dataclasses import replace

import pytest

from repro.core.pipeline import LprPipeline
from repro.par import (
    RAISE,
    FaultInjected,
    FaultPlan,
    ShardFault,
    StudySpec,
    build_study,
    run_study,
)
from repro.traces import StopReason, Trace, gc_paused, make_hop
from repro.warts.format import read_archive, salvage_archive, \
    write_archive

SPEC = StudySpec(scale=0.4, seed=2015, cycles=2, snapshots_per_cycle=2)


@pytest.fixture
def collector_on():
    """Run the test with the collector on, and leave it on."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def default_thresholds():
    """Run the test at CPython's default collection thresholds."""
    saved = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    yield
    gc.set_threshold(*saved)


@pytest.fixture(scope="module")
def staged_cycle(tmp_path_factory):
    """One simulated cycle's three snapshots written as archives, and
    the mapper that classifies them."""
    simulator, _ = build_study(replace(SPEC, snapshots_per_cycle=3))
    data = simulator.run_cycle(1)
    directory = tmp_path_factory.mktemp("staged")
    paths = []
    for index, snapshot in enumerate(data.snapshots):
        paths.append(directory / f"snapshot-{index}.rwts")
        write_archive(paths[-1], snapshot)
    return data.cycle, paths, simulator.internet.ip2as


class _Counted:
    """A GC-tracked object whose every allocation counts toward gen0."""


def _bulk_work(tmp_path):
    """A study, then one cycle written, read back and processed;
    returns the cycle's trace count and drops everything else."""
    run = run_study(SPEC, workers=1)
    data = run.simulator.run_cycle(SPEC.cycles + 1)
    paths = []
    for index, snapshot in enumerate(data.snapshots):
        paths.append(tmp_path / f"snapshot-{index}.rwts")
        write_archive(paths[-1], snapshot)
    snapshots = [read_archive(path) for path in paths]
    result = LprPipeline(run.simulator.internet.ip2as).process_snapshots(
        data.cycle, snapshots)
    return result.stats.trace_count


class TestScope:
    def test_pauses_and_restores(self, collector_on):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self, collector_on):
        with pytest.raises(KeyError):
            with gc_paused():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_nested_scope_leaves_the_outer_pause(self, collector_on):
        with gc_paused():
            with gc_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_collector_off_stays_off(self, collector_on):
        gc.disable()
        with gc_paused():
            pass
        assert not gc.isenabled()


class TestBulkPaths:
    def test_paused_paths_build_no_reference_cycles(self, collector_on,
                                                    tmp_path):
        gc.collect()
        saved = list(gc.garbage)
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            traces = _bulk_work(tmp_path)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage[:] = saved
        assert traces > 0
        # The study, its traces and the archive reads are all gone:
        # freed by reference counting alone, none left to the collector.
        assert garbage == []

    def test_collector_back_on_after_an_injected_fault(self,
                                                       collector_on):
        plan = FaultPlan({2: ShardFault(kind=RAISE, attempts=(0,))})
        with pytest.raises(FaultInjected):
            run_study(SPEC, workers=1, fault_plan=plan)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_off(self, collector_on,
                                                 tmp_path):
        gc.disable()
        _bulk_work(tmp_path)
        assert not gc.isenabled()

    def test_salvage_reads_with_the_collector_paused(self, collector_on,
                                                     tmp_path):
        path = tmp_path / "bulk.rwts"
        write_archive(path, (
            Trace(monitor="mon-a", src=1, dst=index, timestamp=0.0,
                  stop_reason=StopReason.COMPLETED,
                  hops=[make_hop((ttl, index * 16 + ttl, 1.0, (), 1))
                        for ttl in range(1, 9)])
            for index in range(3000)))
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            traces, skipped = salvage_archive(path)
            # Two gen0 thresholds' worth of allocations after the read,
            # each dropped at once: a pass deferred by the scope would
            # fire at the first of them.  (Instances of a Python class,
            # which no free list recycles, so each one counts.)
            for _ in range(2 * gc.get_threshold()[0]):
                _Counted()
        finally:
            gc.callbacks.remove(count)
        assert len(traces) == 3000 and skipped == {}
        # 3,000 traces and 24,000 hops allocated, dozens of gen0
        # thresholds' worth; no pass fires while decoding, and none
        # after: the scope handed them to the oldest generation.
        assert starts == []


class TestPromotionOnExit:
    def test_archive_units_run_no_older_generation_pass(
            self, collector_on, default_thresholds, staged_cycle):
        cycle, paths, ip2as = staged_cycle
        generations = []

        def count(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            # The e2e ``archive`` unit (three reads, then LPR), over
            # enough units that a gen0 pass after each read would add
            # up to gen1 passes.
            for _ in range(6):
                snapshots = [read_archive(path) for path in paths]
                LprPipeline(ip2as).process_snapshots(cycle, snapshots)
        finally:
            gc.callbacks.remove(count)
        assert [generation for generation in generations
                if generation > 0] == []

    def test_a_frozen_set_survives_the_scope(self, collector_on):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            with gc_paused():
                kept = [[index] for index in range(1000)]
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled() and len(kept) == 1000
        finally:
            gc.unfreeze()

    def test_nothing_left_in_the_permanent_generation(self,
                                                      collector_on):
        assert gc.get_freeze_count() == 0
        with gc_paused():
            kept = [[index] for index in range(1000)]
        assert gc.get_freeze_count() == 0
        # The survivors sit in the oldest generation, where a full
        # collection still reaches them.
        assert any(survivor is kept
                   for survivor in gc.get_objects(generation=2))
