"""The GC-quiet bulk scope (``repro.traces.gc_paused``).

Bulk trace work — a study's cycles, ``read_archive`` /
``salvage_archive`` and ``LprPipeline.process_snapshots`` — runs with
CPython's cyclic collector paused.  That is only safe because those
paths build no reference cycles, and only correct if the collector
comes back on however the scope ends and stays off for a caller that
turned it off.
"""

import gc

import pytest

from repro.core.pipeline import LprPipeline
from repro.par import (
    RAISE,
    FaultInjected,
    FaultPlan,
    ShardFault,
    StudySpec,
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
        finally:
            gc.callbacks.remove(count)
        assert len(traces) == 3000 and skipped == {}
        # 3,000 traces and 24,000 hops allocated, dozens of gen0
        # thresholds' worth; none fires while decoding.  At most the
        # one deferred gen0 pass runs, at the first allocation after
        # the collector comes back on.
        assert len(starts) <= 1
