"""Tests for the end-to-end LPR pipeline and dataset statistics."""

import pytest

from repro.core.extraction import extract_all, extract_lsps
from repro.core.pipeline import (
    LprPipeline,
    dataset_stats,
    follow_up_signatures,
    persistence_sweep,
)
from repro.mpls.lse import LabelStackEntry
from repro.net.ip import Prefix, ip_to_int
from repro.net.ip2as import Ip2AsMapper
from repro.obs import get_registry
from repro.sim import ArkSimulator, paper_scenario
from repro.traces import StopReason, Trace, TraceHop

AS_T = 65001
AS_SRC = 65300
AS_DST = 65100
AS_DST2 = 65101


def mapper():
    m = Ip2AsMapper()
    m.add(Prefix.parse("10.1.0.0/16"), AS_T)
    m.add(Prefix.parse("10.9.0.0/16"), AS_SRC)
    m.add(Prefix.parse("50.0.0.0/16"), AS_DST)
    m.add(Prefix.parse("50.1.0.0/16"), AS_DST2)
    return m


def hop(ttl, address, label=None):
    stack = ()
    if label is not None:
        stack = (LabelStackEntry(label, bottom=True, ttl=1),)
    return TraceHop(probe_ttl=ttl, address=ip_to_int(address),
                    rtt_ms=1.0, quoted_stack=stack)


def mpls_trace(dst, labels=(100, 200), monitor="m"):
    hops = [hop(1, "10.9.0.1"), hop(2, "10.1.0.1")]
    for index, label in enumerate(labels):
        hops.append(hop(3 + index, f"10.1.0.{2 + index}", label))
    hops.append(hop(3 + len(labels), "10.1.0.9"))
    hops.append(hop(4 + len(labels), dst))
    return Trace(monitor=monitor, src=ip_to_int("10.9.0.100"),
                 dst=ip_to_int(dst), timestamp=0.0,
                 stop_reason=StopReason.COMPLETED, hops=hops)


def plain_trace(dst):
    hops = [hop(1, "10.9.0.1"), hop(2, "10.1.0.1"), hop(3, dst)]
    return Trace(monitor="m", src=ip_to_int("10.9.0.100"),
                 dst=ip_to_int(dst), timestamp=0.0,
                 stop_reason=StopReason.COMPLETED, hops=hops)


def snapshot():
    return [
        mpls_trace("50.0.0.1"),
        mpls_trace("50.1.0.1"),
        plain_trace("50.0.0.2"),
    ]


class TestDatasetStats:
    def test_counts(self):
        stats = dataset_stats(snapshot(), mapper())
        assert stats.trace_count == 3
        assert stats.traces_with_tunnels == 2
        assert stats.tunnel_trace_share == pytest.approx(2 / 3)

    def test_mpls_vs_non_mpls_addresses(self):
        stats = dataset_stats(snapshot(), mapper())
        # Labelled addresses: 10.1.0.2 and 10.1.0.3.
        assert stats.mpls_addresses == 2
        assert stats.mpls_by_as == {AS_T: 2}
        # Everything else responding is non-MPLS.
        assert stats.non_mpls_addresses > 0
        assert AS_SRC in stats.non_mpls_by_as

    def test_empty(self):
        stats = dataset_stats([], mapper())
        assert stats.tunnel_trace_share == 0.0


class TestPipeline:
    def test_process_snapshots(self):
        pipeline = LprPipeline(mapper())
        snapshots = [snapshot(), snapshot(), snapshot()]
        result = pipeline.process_snapshots(7, snapshots)
        assert result.cycle == 7
        assert result.filter_stats.extracted == 2
        assert result.filter_stats.after_persistence == 2
        assert len(result.classification) == 1
        assert len(result.for_as(AS_T)) == 1
        assert len(result.for_as(999)) == 0

    def test_persistence_window_respected(self):
        pipeline = LprPipeline(mapper(), persistence_window=1)
        # Follow-up 1 is empty, follow-up 2 has the LSPs: with j=1 the
        # AS loses everything and is re-injected (dynamic).
        snapshots = [snapshot(), [plain_trace("50.0.0.2")], snapshot()]
        result = pipeline.process_snapshots(1, snapshots)
        assert result.filter_stats.reinjected_ases == [AS_T]
        pipeline2 = LprPipeline(mapper(), persistence_window=2)
        result2 = pipeline2.process_snapshots(1, snapshots)
        assert result2.filter_stats.reinjected_ases == []

    def test_requires_primary(self):
        pipeline = LprPipeline(mapper())
        with pytest.raises(ValueError):
            pipeline.process_snapshots(1, [])

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            LprPipeline(mapper(), persistence_window=-1)

    def test_php_heuristic_flag_passed(self):
        # Two disjoint LSPs converging only at the exit, same last
        # label: unclassified normally, Mono-FEC with the heuristic.
        first = mpls_trace("50.0.0.1", labels=(100, 500))
        second = Trace(
            monitor="m2", src=ip_to_int("10.9.0.100"),
            dst=ip_to_int("50.1.0.1"), timestamp=0.0,
            stop_reason=StopReason.COMPLETED,
            hops=[hop(1, "10.9.0.1"), hop(2, "10.1.0.1"),
                  hop(3, "10.1.0.30", 300), hop(4, "10.1.0.31", 500),
                  hop(5, "10.1.0.9"), hop(6, "50.1.0.1")],
        )
        # Align entries/exits: first uses 10.1.0.2/3 inside.
        snapshots = [[first, second]] * 3
        plain = LprPipeline(mapper()).process_snapshots(1, snapshots)
        heuristic = LprPipeline(mapper(), php_heuristic=True) \
            .process_snapshots(1, snapshots)
        from repro.core.classification import TunnelClass

        assert plain.classification.counts()[
            TunnelClass.UNCLASSIFIED] == 1
        assert heuristic.classification.counts()[
            TunnelClass.UNCLASSIFIED] == 0
        assert heuristic.classification.counts()[
            TunnelClass.MONO_FEC] == 1

    def test_process_run(self):
        pipeline = LprPipeline(mapper())

        class FakeCycleData:
            def __init__(self, cycle):
                self.cycle = cycle
                self.snapshots = [snapshot()] * 3

        results = pipeline.process_run(FakeCycleData(c) for c in (1, 2))
        assert [r.cycle for r in results] == [1, 2]


class TestPersistenceSweep:
    def test_sweep_points(self):
        snapshots = [snapshot(), [plain_trace("50.0.0.2")], snapshot()]
        points = persistence_sweep(snapshots, mapper(), windows=(0, 1, 2))
        assert [p.window for p in points] == [0, 1, 2]
        # j=0: no filtering; j=1: the empty follow-up triggers
        # re-injection, keeping the set; j=2: union rescues everything.
        assert points[0].kept_lsps == 2
        assert points[2].kept_lsps == 2

    def test_sweep_matches_per_window_pipelines(self):
        # The sweep shares one extraction across windows; every point
        # must still equal a from-scratch pipeline run at that window.
        snapshots = [snapshot(), [plain_trace("50.0.0.2")], snapshot()]
        points = persistence_sweep(snapshots, mapper(), windows=(0, 1, 2))
        for point in points:
            pipeline = LprPipeline(mapper(),
                                   persistence_window=point.window)
            result = pipeline.process_snapshots(0, snapshots)
            assert point.kept_lsps == \
                result.filter_stats.after_persistence
            assert point.classification.counts() == \
                result.classification.counts()

    def test_sweep_rejects_negative_window(self):
        with pytest.raises(ValueError):
            persistence_sweep([snapshot()], mapper(), windows=(1, -1))

    def test_sweep_requires_primary(self):
        with pytest.raises(ValueError):
            persistence_sweep([], mapper(), windows=(0,))


class TestFollowUpsOnSimulatedCycle:
    """The lean follow-up scan against full extraction as the oracle."""

    @pytest.fixture(scope="class")
    def cycle(self):
        simulator = ArkSimulator(paper_scenario(scale=0.4, seed=7))
        simulator.fast_forward(1, 39)
        return simulator.run_cycle(40)

    @staticmethod
    def _extraction_delta(run):
        registry = get_registry()
        before = registry.snapshot()
        value = run()
        delta = registry.diff(before, registry.snapshot())
        return value, {name: payload for name, payload in delta.items()
                       if name.startswith(("lsps_extracted",
                                           "extraction_"))}

    def test_signatures_and_counters_match_extract_all(self, cycle):
        snapshots = cycle.snapshots
        assert len(snapshots) == 3
        lean, lean_delta = self._extraction_delta(
            lambda: follow_up_signatures(snapshots, 2))

        def oracle():
            return [{lsp.signature for lsp in extract_all(snapshot)
                     if lsp.complete} for snapshot in snapshots[1:]]

        expected, oracle_delta = self._extraction_delta(oracle)
        assert lean == expected
        assert all(expected)  # the cycle does exercise tunnels
        assert lean_delta == oracle_delta
        assert lean_delta  # and the counters did move

    def test_dataset_stats_counts_tunnel_traces(self, cycle):
        primary = cycle.snapshots[0]
        stats = dataset_stats(primary, Ip2AsMapper())
        assert stats.traces_with_tunnels == sum(
            1 for trace in primary if extract_lsps(trace))
