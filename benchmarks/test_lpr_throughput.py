"""Throughput benchmarks for the LPR pipeline itself.

Not a paper figure: these measure the cost of the reusable pieces —
archive decoding, extraction, the filter chain, Algorithm-1
classification, probing (``trace_all``) and a whole end-to-end cycle —
on the standard dataset,
so performance regressions in the algorithmic core are caught (CI
compares the means against ``BENCH_baseline.json`` and fails on >25%
regressions).

Two benchmarks additionally record *speedups* in ``extra_info``:

* ``test_bench_trace_all`` / ``test_bench_full_pipeline`` time the
  single-process fast path against a ``memoize=False`` reference on
  identical state — the route/hop/quoted-stack caches (DESIGN §8) —
  both asserted >= 1.25x on the median of paired rounds (a reference
  round right before each fast round, timed the same way);
* ``test_bench_parallel_study_speedup`` times a sharded campaign
  against the serial loop — a multi-core win that is only asserted on
  machines with enough cores.
"""

import os
import pickle
import statistics
import time

import pytest

from repro.core.classification import classify
from repro.core.extraction import extract_all
from repro.core.filters import run_filters
from repro.core.pipeline import LprPipeline
from repro.igp.ecmp import flow_hash
from repro.par import StateStore, StudySpec, run_study
from repro.sim import ArkSimulator, paper_scenario
from repro.sim.dataplane import DataPlane
from repro.sim.scenarios import Scenario, build_universe, paper_policies
from repro.sim.traceroute import TracerouteEngine
from repro.warts import read_archive, write_archive

from conftest import run_once

_BENCH_CYCLE = 40
_DAY = 86_400.0
_MONTH = 30 * _DAY

# The warm-start benches use a campaign longer than the paper's 60
# cycles so late shards have a long prefix to skip; paper_scenario
# hard-codes 60, so the scenario is built directly.
_LONG_CYCLES = 64
_LONG_STRIDE = 8


def _long_simulator() -> ArkSimulator:
    return ArkSimulator(Scenario(
        universe=build_universe(scale=1.0, seed=2015),
        planner=paper_policies, cycles=_LONG_CYCLES))


@pytest.fixture(scope="module")
def cycle_data(study):
    """A fresh mid-study cycle dataset (traces only)."""
    return study.simulator.run_cycle(_BENCH_CYCLE)


def _forwarded_simulator(memoize: bool = True) -> ArkSimulator:
    """A standard-campaign simulator on the eve of the bench cycle."""
    simulator = ArkSimulator(paper_scenario(scale=1.0, seed=2015),
                             memoize=memoize)
    simulator.fast_forward(1, _BENCH_CYCLE - 1)
    return simulator


@pytest.fixture(scope="module")
def frozen_snapshot():
    """The bench cycle's first snapshot, frozen: state + pair list."""
    simulator = _forwarded_simulator()
    plan = simulator.scenario.plan(_BENCH_CYCLE)
    simulator.internet.apply_policies(plan.policies)
    simulator.internet.tick()
    pairs = simulator.assignments(_BENCH_CYCLE, plan.monitor_fraction,
                                  plan.dest_fraction, 0)
    return simulator, pairs


# Fast and reference rounds of the memoization-floor benches.
_PAIRED_ROUNDS = 3


def _timed(function):
    """``(function(), seconds it took)``."""
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def _median_ratio(reference_s, fast_s) -> float:
    """Median over rounds of reference time / fast time."""
    return statistics.median(
        ref / fast for ref, fast in zip(reference_s, fast_s))


def _snapshot_engine(simulator: ArkSimulator,
                     memoize: bool) -> TracerouteEngine:
    """The engine ``run_cycle`` would build for the frozen snapshot."""
    return TracerouteEngine(
        DataPlane(simulator.internet,
                  era=flow_hash(_BENCH_CYCLE, 0),
                  flap_rate=simulator.flap_rate,
                  egress_noise=simulator.egress_noise,
                  memoize=memoize),
        seed=flow_hash(simulator._seed, _BENCH_CYCLE, 0),
        loss_rate=simulator.loss_rate,
    )


@pytest.fixture(scope="module")
def cycle_archives(cycle_data, tmp_path_factory):
    """The bench cycle's three snapshots, written once as archives."""
    directory = tmp_path_factory.mktemp("archives")
    paths = []
    for index, snapshot in enumerate(cycle_data.snapshots):
        path = directory / f"snapshot-{index}.rwts"
        write_archive(path, snapshot)
        paths.append(path)
    return paths


def test_bench_warts_read(benchmark, cycle_data, cycle_archives):
    """Decoding one cycle's primary and follow-up archives (the read
    side of ``repro classify``)."""
    snapshots = benchmark(
        lambda: [read_archive(path) for path in cycle_archives])
    assert [len(traces) for traces in snapshots] == \
        [len(traces) for traces in cycle_data.snapshots]
    # RTTs are stored as f32, so compare what LPR reads.
    def lpr_view(traces):
        return [(hop.address, hop.quoted_stack, hop.quoted_ttl)
                for trace in traces for hop in trace.hops]

    assert lpr_view(snapshots[0]) == lpr_view(cycle_data.snapshots[0])


def test_bench_extraction(benchmark, study, cycle_data):
    lsps = benchmark(extract_all, cycle_data.traces)
    assert lsps


def test_bench_filters(benchmark, study, cycle_data):
    pipeline = LprPipeline(study.simulator.internet.ip2as)
    lsps = extract_all(cycle_data.traces)
    follow = pipeline.follow_up_signatures(cycle_data.snapshots)

    def run():
        return run_filters(lsps, study.simulator.internet.ip2as, follow)

    iotps, stats = benchmark(run)
    assert stats.after_persistence > 0


def test_bench_classification(benchmark, study, cycle_data):
    pipeline = LprPipeline(study.simulator.internet.ip2as)
    lsps = extract_all(cycle_data.traces)
    iotps, _ = run_filters(
        lsps, study.simulator.internet.ip2as,
        pipeline.follow_up_signatures(cycle_data.snapshots))
    result = benchmark(classify, iotps)
    assert len(result) == len(iotps)


def test_bench_trace_all(benchmark, frozen_snapshot):
    """One snapshot's probing, memoized vs the uncached reference.

    Each round rebuilds the engine (cold per-era caches, exactly as
    ``run_cycle`` does), so this measures the realistic cold-cache
    snapshot cost.  The ``memoize=False`` reference runs on the same
    frozen state; its time and the resulting single-process speedup
    land in ``extra_info``, and the traces are asserted identical —
    the caches are exact.

    The floor is 1.25: the measured ratio has ranged from ~1.4x to
    ~3.3x across hosts (the memoized leg is cache-bound, the
    reference compute-bound, so the split tracks the host's memory
    subsystem more than the code) — the assert only pins down that
    memoization still wins, the trajectory gate pins the magnitude.
    """
    simulator, pairs = frozen_snapshot
    timestamp = (_BENCH_CYCLE - 1) * _MONTH
    fast_s, unmemoized_s, reference = [], [], []

    def reference_round():
        traces, seconds = _timed(lambda: _snapshot_engine(
            simulator, False).trace_all(pairs, timestamp))
        reference[:] = [traces]
        unmemoized_s.append(seconds)

    def probe():
        traces, seconds = _timed(lambda: _snapshot_engine(
            simulator, True).trace_all(pairs, timestamp))
        fast_s.append(seconds)
        return traces

    # setup runs right before each timed round: the legs interleave.
    traces = benchmark.pedantic(probe, setup=reference_round,
                                rounds=_PAIRED_ROUNDS, iterations=1)

    speedup = _median_ratio(unmemoized_s, fast_s)
    benchmark.extra_info["unmemoized_s"] = round(
        statistics.median(unmemoized_s), 3)
    benchmark.extra_info["memoization_speedup"] = round(speedup, 2)

    assert traces == reference[0]
    assert speedup >= 1.25, (
        f"expected >= 1.25x from memoization, got {speedup:.2f}x "
        f"(memoized {fast_s}, uncached {unmemoized_s})")


def test_bench_full_pipeline(benchmark):
    """One end-to-end cycle — probing plus LPR — fast vs slow path.

    The measured leg runs the memoized forwarding plane (DESIGN §8);
    the reference runs uncached.  Both legs analyse the cycle through
    the same LPR pipeline.  ``run_cycle`` mutates simulator state, so
    every round gets its own identically fast-forwarded simulator and
    runs the cycle exactly once.  The reference time and speedup land
    in ``extra_info``; results are asserted identical.

    The floor is 1.25, the same as ``test_bench_trace_all``: both
    measure memoization alone, and here the analysis stage, identical
    in both legs, dilutes the ratio further (measured 1.34x to 1.45x
    on a 2-vCPU Xeon VM).  The two legs also stress the host
    differently — the fast leg is cache-bound, the uncached reference
    compute-bound — so the ratio shifts several points with the
    machine's memory subsystem.  The assert only pins down that
    memoization still wins; the trajectory gate pins the magnitude.
    """
    fast_s, unmemoized_s, reference = [], [], []

    def process(simulator):
        return LprPipeline(simulator.internet.ip2as).process_cycle(
            simulator.run_cycle(_BENCH_CYCLE))

    def reference_round_then_setup():
        simulator = _forwarded_simulator(memoize=False)
        result, seconds = _timed(lambda: process(simulator))
        reference[:] = [result]
        unmemoized_s.append(seconds)
        return (_forwarded_simulator(),), {}

    def fast(simulator):
        result, seconds = _timed(lambda: process(simulator))
        fast_s.append(seconds)
        return result

    # setup runs right before each timed round: the legs interleave.
    result = benchmark.pedantic(fast, setup=reference_round_then_setup,
                                rounds=_PAIRED_ROUNDS, iterations=1)
    ref_result = reference[0]

    speedup = _median_ratio(unmemoized_s, fast_s)
    benchmark.extra_info["unmemoized_s"] = round(
        statistics.median(unmemoized_s), 3)
    benchmark.extra_info["fast_path_speedup"] = round(speedup, 2)

    assert len(result.classification) > 0
    assert result.stats == ref_result.stats
    assert result.filter_stats == ref_result.filter_stats
    assert result.classification.verdicts == \
        ref_result.classification.verdicts
    assert speedup >= 1.25, (
        f"expected >= 1.25x from the memoized fast path, got "
        f"{speedup:.2f}x (fast {fast_s}, uncached {unmemoized_s})")


def test_bench_fast_forward(benchmark):
    """Control-plane replay of a 63-cycle prefix (no probes).

    This is the work every parallel worker and resumed study used to
    pay in full before probing — kept fast by the closed-form allocator
    advance and the TE/SR sync memoization, and short-circuited
    entirely by warm-start snapshots (``test_bench_warm_start``).
    """
    def replay(simulator):
        simulator.fast_forward(1, _LONG_CYCLES - 1)
        return simulator

    simulator = benchmark.pedantic(
        replay, setup=lambda: ((_long_simulator(),), {}),
        rounds=3, iterations=1)
    assert any(network.labels is not None
               for network in simulator.internet.networks.values())


def test_bench_warm_start(benchmark, tmp_path):
    """Late-shard state reconstruction: snapshot restore + tail replay
    vs full replay of a 64-cycle campaign (DESIGN §10).

    A seeded :class:`StateStore` (stride 8, snapshots at cycles
    8..56) stands in for the store a ``--state-dir`` campaign shares;
    the benchmark times what a worker owning the *last* shard
    (first cycle 64) does to rebuild its starting state: restore the
    cycle-56 snapshot and replay 7 cycles, versus the cold path's 63.
    The reconstructed control plane is asserted byte-identical to the
    cold replay's, and the >= 3x speedup is asserted and recorded in
    the committed baseline.
    """
    spec = StudySpec(scale=1.0, seed=2015, cycles=_LONG_CYCLES)
    store = StateStore(tmp_path, spec)
    seeder = _long_simulator()
    cursor = 0
    for cycle in range(_LONG_STRIDE, _LONG_CYCLES, _LONG_STRIDE):
        seeder.fast_forward(cursor + 1, cycle)
        cursor = cycle
        store.save(cycle, seeder.internet.capture_state())
    target = _LONG_CYCLES - 1  # the last shard replays 1..63

    def reconstruct_warm(simulator):
        cycle, state = store.load_nearest(target)
        simulator.internet.restore_state(state)
        simulator.fast_forward(cycle + 1, target)
        return simulator

    warm = benchmark.pedantic(
        reconstruct_warm, setup=lambda: ((_long_simulator(),), {}),
        rounds=3, iterations=1)

    cold_times = []
    cold = None
    for _ in range(3):
        cold = _long_simulator()
        start = time.perf_counter()
        cold.fast_forward(1, target)
        cold_times.append(time.perf_counter() - start)
    cold_s = sum(cold_times) / len(cold_times)

    warm_s = benchmark.stats.stats.mean
    speedup = cold_s / warm_s if warm_s else 0.0
    benchmark.extra_info["cold_replay_s"] = round(cold_s, 3)
    benchmark.extra_info["snapshot_stride"] = _LONG_STRIDE
    benchmark.extra_info["warm_start_speedup"] = round(speedup, 2)

    # Byte-identity before speed: the warm-started control plane must
    # be indistinguishable from the replayed one (probing is a pure
    # function of this state, so identical state means identical
    # traces — whole-study identity is asserted in test_statestore).
    assert pickle.dumps(warm.internet.capture_state()) == \
        pickle.dumps(cold.internet.capture_state())
    assert speedup >= 3.0, (
        f"expected >= 3x from warm start, got {speedup:.2f}x "
        f"(warm {warm_s:.3f}s, cold replay {cold_s:.3f}s)")


def test_bench_parallel_study_speedup(benchmark):
    """An 8-cycle campaign sharded over 4 workers vs the serial loop.

    The benchmark times the parallel run; the serial reference time,
    core count and resulting speedup land in ``extra_info`` so the
    committed baseline JSON records them.  The >= 2x speedup assertion
    only applies on machines with at least 4 cores (the CI runner) —
    on fewer cores sharding cannot win and only correctness is checked.
    """
    spec = StudySpec(scale=1.0, seed=2015, cycles=8)
    cores = os.cpu_count() or 1

    serial_start = time.perf_counter()
    serial = run_study(spec, workers=1)
    serial_s = time.perf_counter() - serial_start

    parallel = run_once(benchmark, run_study, spec, workers=4)

    parallel_s = benchmark.stats.stats.mean
    speedup = serial_s / parallel_s if parallel_s else 0.0
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["cpu_count"] = cores
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # Correctness before speed: sharding must not change the results.
    assert [r.cycle for r in parallel.results] == \
        [r.cycle for r in serial.results]
    for one, two in zip(serial.results, parallel.results):
        assert one.stats == two.stats
        assert one.classification.verdicts == two.classification.verdicts

    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup on {cores} cores, got "
            f"{speedup:.2f}x (serial {serial_s:.2f}s, "
            f"parallel {parallel_s:.2f}s)")
