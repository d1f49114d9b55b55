"""The process-pool study runner.

A :class:`StudySpec` is the complete, picklable recipe for one
longitudinal campaign; :func:`build_study` turns it into a fresh
``(ArkSimulator, LprPipeline)`` pair.  Because every simulation object
is a pure function of the spec's seed (DESIGN §6), a worker process that
builds the same spec and fast-forwards to its shard's first cycle holds
exactly the network state the serial run would have there — label
allocators, TE sessions and all.

:func:`run_study` is the single entry point: ``workers <= 1`` runs the
familiar serial loop in-process; ``workers > 1`` fans the shards out
over a process pool, collects the per-shard results in cycle order,
absorbs each shard's metrics delta into the parent registry (tagged
with per-shard accounting counters), and finally fast-forwards a parent
simulator through the whole campaign so that post-study experiments
(Figs 6, 16, 17 re-run cycles on top of the end state) see the identical
state a serial run leaves behind.

When ``workers`` exceeds the cycle count — including the degenerate but
common 1-cycle study — :func:`~repro.par.shard.plan_shards` keeps
sharding *inside* cycles: surplus workers each trace one contiguous
**pair block** of a cycle's (monitor, destination) list over the same
fast-forwarded state, the parent reassembles the blocks' traces in pair
order into one :class:`~repro.sim.ark.CycleData` and runs the pipeline
on it exactly as a serial cycle would, so results, metrics deltas and
checkpoints stay byte-identical (DESIGN §8).

The runner is **fault tolerant** (DESIGN §8):

* a dead worker (``BrokenProcessPool``) or a per-shard exception marks
  the shard failed, not the study; failed shards are re-dispatched with
  exponential backoff up to ``max_retries`` times, optionally
  subdivided — cycle ranges into halves, pair blocks into half-blocks —
  to route around a poisonous unit of work;
* with ``checkpoint_dir`` set, every finished cycle (from a cycle-range
  shard or reassembled from pair blocks) and every raw pair block is
  persisted under a per-cycle key, and a restarted study — under any
  worker count — plans shards over the still-missing cycles only
  (:mod:`repro.par.checkpoint`);
* both paths keep the headline guarantee: because each shard is a pure
  function of ``(spec, cycle range, pair range)``, a retried,
  subdivided or resumed run stays byte-identical to an uninterrupted
  serial one.

The runner is also the **flight recorder's** main instrument
(DESIGN §9): it emits study/shard/cycle lifecycle events to the
:mod:`repro.obs.events` bus, streams worker heartbeats (cycles done,
pair blocks done, traces simulated) over a progress queue into a live
:class:`~repro.obs.progress.ProgressTracker`, persists each cycle's
metrics delta as a ``cycle.metrics`` event, and — when the caller
profiles — grafts every worker's span tree under the study root so
``--profile`` and ``--trace-out`` account for time spent *inside*
workers.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.pipeline import CycleResult, LprPipeline
from ..obs import (
    Clock,
    EventBus,
    HealthMonitor,
    MonotonicClock,
    NullClock,
    ProgressTracker,
    Span,
    StallWatchdog,
    Tracer,
    emit,
    get_logger,
    get_registry,
    get_tracer,
    record_resources,
    sample_resources,
    set_event_bus,
    set_tracer,
    span,
)
from ..sim import ArkSimulator
from ..sim.ark import CycleData
from ..sim.scenarios import CYCLES, paper_scenario
from .checkpoint import CheckpointStore
from .faults import FaultPlan, ShardFault
from .shard import Shard, plan_shards, shard_cycles
from .statestore import DEFAULT_SNAPSHOT_STRIDE, StateStore

_log = get_logger(__name__)
_SHARDS_RUN = get_registry().counter(
    "par_shards_total", "Shards executed by parallel study runs")
_SHARD_CYCLES = get_registry().counter(
    "par_shard_cycles_total",
    "Cycles processed per shard of a parallel study run")
_PAIR_BLOCKS = get_registry().counter(
    "par_pair_blocks_total",
    "Intra-cycle pair blocks traced by parallel study runs")
_CYCLES_REPLAYED = get_registry().counter(
    "par_cycles_replayed_total",
    "Cycles fast-forwarded (control-plane replay, no probes)")
_SHARD_RETRIES = get_registry().counter(
    "par_shard_retries_total",
    "Shard re-dispatches after a worker death or shard exception")
_SHARDS_FAILED = get_registry().counter(
    "par_shards_failed_total",
    "Shards that exhausted their retry budget (aborts the study)")
_SHARDS_STALLED = get_registry().counter(
    "par_shards_stalled_total",
    "Shards flagged silent past the --stall-timeout deadline")


class StudyFailure(RuntimeError):
    """A shard kept failing after every retry; the study aborted."""


@dataclass(frozen=True)
class StudySpec:
    """Everything needed to rebuild one campaign from scratch.

    Plain numbers only, so the spec pickles cheaply into worker
    processes and two equal specs always produce byte-identical runs.
    """

    scale: float = 1.0
    seed: int = 2015
    cycles: int = CYCLES
    snapshots_per_cycle: int = 3
    persistence_window: int = 2
    reinject_threshold: float = 0.10
    php_heuristic: bool = False
    memoize: bool = True
    """Forwarding-path memoization (DESIGN §8).  The caches are exact,
    so flipping this never changes results — which is precisely what
    the differential oracle (:mod:`repro.verify`) asserts by running
    the same campaign with and without them."""


def build_study(spec: StudySpec) -> Tuple[ArkSimulator, LprPipeline]:
    """A fresh simulator + pipeline pair for one spec."""
    simulator = ArkSimulator(
        paper_scenario(scale=spec.scale, seed=spec.seed),
        snapshots_per_cycle=spec.snapshots_per_cycle,
        memoize=spec.memoize,
    )
    pipeline = LprPipeline(
        simulator.internet.ip2as,
        persistence_window=spec.persistence_window,
        reinject_threshold=spec.reinject_threshold,
        php_heuristic=spec.php_heuristic,
    )
    return simulator, pipeline


@dataclass
class ShardResult:
    """What one worker sends back: results plus its metrics delta.

    A cycle-range shard carries processed ``results``; an intra-cycle
    pair block instead carries the raw per-snapshot ``snapshots`` it
    traced, tagged with its ``block = (cycle, index, count)`` — the
    parent reassembles a full cycle from the blocks and runs the
    pipeline itself.
    """

    shard_id: int
    results: List[CycleResult]
    metrics_delta: Dict[str, Any]
    replayed_cycles: int
    block: Optional[Tuple[int, int, int]] = None
    snapshots: Optional[List[list]] = None
    spans: Optional[List[Span]] = None
    """The worker's tracer roots, returned only on profiled runs and
    grafted under the parent's study span (stripped from checkpoints —
    timing is per-run observability, not a campaign result)."""
    entries: Optional[List[bytes]] = None
    """A cycle-range shard run with a checkpoint store: one encoded
    checkpoint entry per entry of ``results``
    (:meth:`CheckpointStore.encode`), holding that cycle's result and
    its own metrics delta, windowed around the cycle's simulation and
    pipeline exactly as the serial loop windows it.  The parent writes
    these bytes as they are; ``metrics_delta`` still covers the whole
    shard (prefix replay included) and is what the parent absorbs."""


@dataclass
class StudyRun:
    """One executed campaign: end-state simulator + ordered results."""

    simulator: ArkSimulator
    pipeline: LprPipeline
    results: List[CycleResult]
    shards: List[ShardResult] = field(default_factory=list)
    """Per-shard accounting of a parallel run (empty when serial):
    cycle-range results, restored cycle entries and raw pair blocks,
    in (cycle, pair) order."""


def _beat(beats, shard: Shard, **fields: Any) -> None:
    """Push one heartbeat; a dying progress channel never fails work."""
    if beats is None:
        return
    try:
        beats.put({"shard": shard.shard_id, **fields})
    except Exception:
        pass


def _run_shard(
    args: Tuple[StudySpec, Shard, int, Optional[ShardFault], bool, Any,
                Any, bool, Any]
) -> ShardResult:
    """Worker entry: reconstruct state, run the shard's work locally.

    The worker installs a *fresh* event bus (a forked sink file
    descriptor must never be written from two processes) and a fresh
    tracer — monotonic when the parent profiles, so the returned
    ``par.worker`` span tree carries real durations the parent grafts
    into its own trace.  ``beats`` (a manager queue or None) receives
    a liveness heartbeat on entry and after the prefix replay — what
    arms the stall watchdog's deadline — then one per finished cycle /
    pair block.  With ``resources`` set each heartbeat also carries a
    :func:`~repro.obs.resources.sample_resources` sample of *this*
    worker process; the parent folds it into its own registry, so the
    shard's ``metrics_delta`` stays free of resource gauges.

    With ``checkpoint_dir`` set each cycle also gets its own metrics
    window around its simulation and pipeline only — the warm-start
    restore and prefix replay stay outside — and is encoded here, in
    the process that computed it, into the checkpoint entry the parent
    writes (``ShardResult.entries``).

    With ``state_dir`` set the worker warm-starts: it restores the
    newest usable snapshot at or before ``first - 1`` from the shared
    :class:`StateStore` and replays only the tail, instead of the whole
    ``1..first-1`` prefix.  Probing never mutates the control plane
    (DESIGN §6), so the resulting state — and hence the shard's output
    — is byte-identical either way; ``replayed_cycles`` records what
    was actually replayed.
    """
    (spec, shard, attempt, fault, profile, beats, state_dir,
     resources, checkpoint_dir) = args
    set_event_bus(EventBus())
    tracer = set_tracer(Tracer(MonotonicClock() if profile
                               else NullClock()))

    def _res() -> Dict[str, Any]:
        return ({"resources": sample_resources()} if resources else {})

    _beat(beats, shard, **_res())
    simulator, pipeline = build_study(spec)
    registry = get_registry()
    before = registry.snapshot()
    sim_traces = registry.counter("sim_traces_total")
    traces_start = sim_traces.value()
    block_attrs = ({"block": f"{shard.block[0]}/{shard.block[1]}"}
                   if shard.block is not None else {})
    store = (CheckpointStore(checkpoint_dir, spec)
             if checkpoint_dir is not None else None)
    results: List[CycleResult] = []
    entries: Optional[List[bytes]] = (
        [] if store is not None and shard.block is None else None)
    snapshots: Optional[List[list]] = None
    replay_from = 1
    with tracer.span("par.worker", first=shard.first, last=shard.last,
                     **block_attrs):
        if state_dir is not None and shard.first > 1:
            found = StateStore(state_dir, spec).load_nearest(
                shard.first - 1)
            if found is not None:
                snapshot_cycle, state = found
                simulator.internet.restore_state(state)
                replay_from = snapshot_cycle + 1
        simulator.fast_forward(replay_from, shard.first - 1)
        if shard.first > 1:
            _beat(beats, shard, **_res())  # prefix replayed, alive
        if shard.block is not None:
            if fault is not None:
                fault.maybe_fire(attempt, 0)
            data = simulator.run_cycle(shard.first,
                                       pair_block=shard.block)
            snapshots = data.snapshots
            _beat(beats, shard, blocks_done=1,
                  traces=sim_traces.value() - traces_start, **_res())
        else:
            for index, cycle in enumerate(shard.cycles):
                if fault is not None:
                    fault.maybe_fire(attempt, index)
                window = (registry.snapshot() if store is not None
                          else None)
                result = pipeline.process_cycle(
                    simulator.run_cycle(cycle))
                results.append(result)
                if store is not None:
                    entries.append(store.encode(_cycle_entry(
                        result,
                        registry.diff(window, registry.snapshot()))))
                _beat(beats, shard, cycles_done=index + 1,
                      traces=sim_traces.value() - traces_start,
                      **_res())
    return ShardResult(
        shard_id=shard.shard_id,
        results=results,
        metrics_delta=registry.diff(before, registry.snapshot()),
        replayed_cycles=shard.first - replay_from,
        block=((shard.first,) + shard.block
               if shard.block is not None else None),
        snapshots=snapshots,
        spans=tracer.roots if profile else None,
        entries=entries,
    )


def _pool_context():
    """Fork where the platform offers it (cheap, shares the warm
    imports); spawn otherwise.  Workers derive everything from the
    pickled spec either way, so the start method never affects output.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_study(spec: StudySpec, workers: int = 1, *,
              max_retries: int = 2,
              backoff_base: float = 0.5,
              subdivide: bool = True,
              checkpoint_dir=None,
              state_dir=None,
              snapshot_stride: int = DEFAULT_SNAPSHOT_STRIDE,
              fault_plan: Optional[FaultPlan] = None,
              sleep: Callable[[float], None] = time.sleep,
              progress: Optional[Callable[[ProgressTracker],
                                          None]] = None,
              progress_clock: Optional[Clock] = None,
              resources: bool = False,
              stall_timeout: Optional[float] = None,
              stall_clock: Optional[Clock] = None,
              health: Optional[HealthMonitor] = None) -> StudyRun:
    """Execute a campaign, sharded over ``workers`` processes.

    Results come back ordered by cycle whatever the pool's scheduling,
    and each shard's metrics delta is absorbed into this process's
    registry, so counters reconcile exactly with a serial run.  With
    more workers than cycles the surplus splits cycles into pair blocks
    (:func:`~repro.par.shard.plan_shards`), so even a 1-cycle study
    scales out — still byte-identical.

    Failure handling: a shard whose worker dies or raises is
    re-dispatched up to ``max_retries`` times, sleeping
    ``backoff_base * 2^round`` seconds between rounds (``sleep`` is
    injectable for tests); on retry, when ``subdivide`` is set,
    multi-cycle shards split into halves and pair blocks into
    half-blocks, so a single bad allocation or kill costs only part of
    the work.  When every retry is exhausted the study aborts with
    :class:`StudyFailure`.

    With ``checkpoint_dir`` set, every finished cycle is persisted
    through a :class:`CheckpointStore` under a per-cycle key — one
    entry per cycle of a range shard, per reassembled cycle and per
    serial cycle, with identical bytes whichever wrote it — plus one
    entry per raw pair block.  A restarted run looks every cycle up
    once, restores the hits and plans shards over the missing cycles
    only, so any worker layout resumes from any other — byte-identical
    output either way.  ``fault_plan`` is the test-only injection hook
    (:mod:`repro.par.faults`); production runs leave it None.

    With ``state_dir`` set, control-plane snapshots are shared through
    a :class:`StateStore` every ``snapshot_stride`` cycles
    (:mod:`repro.par.statestore`): the parent seeds the store while
    advancing its own end-state simulator *before* dispatching, each
    worker warm-starts from the nearest snapshot ≤ its shard's first
    cycle instead of replaying the whole prefix, and the serial loop
    writes snapshots as it runs so an interrupted study resumes warm.
    Snapshots only shortcut :meth:`~repro.sim.ark.ArkSimulator.\
fast_forward` — never probing — so output stays byte-identical with or
    without them.

    Telemetry (DESIGN §9): lifecycle events (``study.start``,
    ``shard.dispatch``/``done``/``retry``/``restored``,
    ``cycle.metrics`` with each cycle's registry delta, ``study.done``)
    go to the current :mod:`repro.obs.events` bus.  ``progress`` is an
    optional callback invoked with a live
    :class:`~repro.obs.progress.ProgressTracker` on every heartbeat and
    shard completion — passing it opens a worker→parent progress queue
    and (unless ``progress_clock`` injects a fake) reads the wall clock
    for ETA, an explicit observability opt-in.  When the caller's
    global tracer has a real clock (``--profile``/``--trace-out``),
    workers time their own spans and the parent grafts each shard's
    tree under the study span, tagged ``shard=<id>``.

    The live telemetry plane (DESIGN §12) adds three more opt-ins, all
    default-off so the determinism contract stands.  ``resources=True``
    attaches an RSS/CPU/GC sample to every heartbeat (workers, the
    serial loop and the parent alike), folded into ``worker_*`` gauges
    in *this* process's registry and emitted as ``worker.resources``
    events — never into results, per-cycle deltas or checkpoints.
    ``stall_timeout`` arms a heartbeat-deadline
    :class:`~repro.obs.watchdog.StallWatchdog` (``stall_clock``
    injectable for tests): a shard silent past the deadline gets a
    ``shard.stalled`` event, a ``par_shards_stalled_total`` bump and —
    via ``health`` — flips ``/healthz``; a later beat or completion
    emits ``shard.recovered``.  ``health`` is the
    :class:`~repro.obs.live.HealthMonitor` a
    :class:`~repro.obs.live.TelemetryServer` shares with this run;
    the runner beats it on every sign of life and freezes it healthy
    on return.
    """
    if max_retries < 0:
        raise ValueError(f"negative max_retries: {max_retries}")
    if backoff_base < 0:
        raise ValueError(f"negative backoff_base: {backoff_base}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1: "
                         f"{snapshot_stride}")
    if stall_timeout is not None and stall_timeout <= 0:
        raise ValueError(f"stall_timeout must be > 0: {stall_timeout}")
    store = (CheckpointStore(checkpoint_dir, spec)
             if checkpoint_dir is not None else None)
    state_store = (StateStore(state_dir, spec)
                   if state_dir is not None else None)
    emit("study.start", cycles=spec.cycles, workers=workers)
    if workers <= 1:
        run = _run_serial(spec, store, fault_plan, progress=progress,
                          progress_clock=progress_clock,
                          state_store=state_store,
                          snapshot_stride=snapshot_stride,
                          resources=resources, health=health)
        if health is not None:
            health.finish()
        emit("study.done", cycles=len(run.results), shards=0)
        return run

    # Workers inherit profiling from the parent's tracer clock: a real
    # clock means span durations are wanted, so shards time themselves
    # and return their trees for grafting.
    profile = not isinstance(get_tracer().clock, NullClock)
    # Look every cycle up once: whatever layout wrote a cycle's entry,
    # it is reused, and only the cycles no entry covers are planned.
    restored: Dict[int, ShardResult] = {}
    if store is not None:
        for cycle in range(1, spec.cycles + 1):
            cached = store.load(cycle)
            if cached is not None:
                restored[cycle] = cached
    shards = plan_shards((cycle for cycle in range(1, spec.cycles + 1)
                          if cycle not in restored), workers)
    emit("study.plan", shards=len(shards), workers=workers)
    tracker: Optional[ProgressTracker] = None
    manager = None
    beats = None
    # Heartbeats carry progress, resource samples and watchdog
    # liveness alike: open the worker→parent queue when any consumer
    # exists.
    telemetry = (progress is not None or resources
                 or stall_timeout is not None)
    if progress is not None:
        tracker = ProgressTracker(spec.cycles,
                                  clock=progress_clock
                                  or MonotonicClock())
        tracker.add_restored(len(restored))
    if telemetry:
        manager = _pool_context().Manager()
        beats = manager.Queue()
    watchdog = (StallWatchdog(stall_timeout, clock=stall_clock)
                if stall_timeout is not None else None)

    def _notify() -> None:
        if progress is not None and tracker is not None:
            progress(tracker)

    def _register(shard: Shard, done: bool = False) -> None:
        if tracker is None:
            return
        work = (1.0 / shard.block[1] if shard.block is not None
                else float(len(shard)))
        tracker.add_shard(shard.shard_id, work,
                          is_block=shard.block is not None, done=done)

    def _on_beat(beat: Dict[str, Any]) -> None:
        sample = beat.pop("resources", None)
        shard_id = beat.get("shard", -1)
        if tracker is not None:
            tracker.heartbeat(shard_id,
                              cycles_done=beat.get("cycles_done", 0),
                              blocks_done=beat.get("blocks_done", 0),
                              traces=beat.get("traces", 0))
        emit("shard.heartbeat", **beat)
        if sample is not None:
            record_resources(shard_id, sample)
        if watchdog is not None and watchdog.beat(shard_id):
            emit("shard.recovered", shard=shard_id)
            if health is not None:
                health.clear(shard_id)
        if health is not None:
            health.beat()
        _notify()

    def _on_tick() -> None:
        """Dispatch-loop pulse: flag shards newly past the deadline."""
        if watchdog is None:
            return
        for shard_id in watchdog.check():
            _SHARDS_STALLED.inc(shard=shard_id)
            _log.warning("par.shard.stalled", shard=shard_id,
                         timeout=stall_timeout)
            emit("shard.stalled", shard=shard_id,
                 timeout=stall_timeout)
            if health is not None:
                health.stall(shard_id)

    def _on_settle(shard_id: int) -> None:
        """A shard's future resolved (result or error): unflag it."""
        if watchdog is not None and watchdog.clear(shard_id):
            emit("shard.recovered", shard=shard_id)
            if health is not None:
                health.clear(shard_id)

    _log.info("par.study.start", cycles=spec.cycles, workers=workers,
              shards=len(shards))
    try:
        with span("par.study", cycles=spec.cycles, shards=len(shards)):
            # The parent simulator never probes, but its end state
            # backs post-study experiments — and, with a state store,
            # its one replay pass seeds the snapshots every worker
            # warm-starts from, so it runs *before* dispatch.  Without
            # a store the replay is deferred until after collection
            # (nothing to share).
            simulator, pipeline = build_study(spec)
            if state_store is not None:
                with span("par.state_seed", cycles=spec.cycles,
                          stride=snapshot_stride):
                    _seed_state_store(simulator, state_store,
                                      spec.cycles, snapshot_stride)
            # completed: executed cycle-range ShardResults; blocks: raw
            # pair blocks per cycle (executed or restored).
            completed: List[ShardResult] = []
            blocks: Dict[int, List[ShardResult]] = {}
            pending: List[Shard] = []
            attempts: Dict[Shard, int] = {}
            next_id = len(shards)
            for shard in shards:
                cached = (store.load(shard.first, shard.block)
                          if store is not None and shard.block is not None
                          else None)
                if cached is not None:
                    blocks.setdefault(shard.first, []).append(cached)
                    _register(shard, done=True)
                    emit("shard.restored", shard=shard.shard_id,
                         first=shard.first, last=shard.last,
                         block=list(shard.block))
                else:
                    pending.append(shard)
                    attempts[shard] = 0
                    _register(shard)
            _notify()

            round_index = 0
            while pending:
                if round_index > 0:
                    delay = backoff_base * (2 ** (round_index - 1))
                    if delay > 0:
                        sleep(delay)
                executed, failed = _dispatch(spec, pending, workers,
                                             attempts, fault_plan,
                                             profile, beats, _on_beat,
                                             state_dir=state_dir,
                                             checkpoint_dir=checkpoint_dir,
                                             resources=resources,
                                             watchdog=watchdog,
                                             on_tick=_on_tick,
                                             on_settle=_on_settle)
                for result in executed:
                    _SHARDS_RUN.inc()
                    if result.block is not None:
                        _PAIR_BLOCKS.inc(shard=result.shard_id)
                    else:
                        _SHARD_CYCLES.inc(len(result.results),
                                          shard=result.shard_id)
                    _CYCLES_REPLAYED.inc(result.replayed_cycles)
                    if store is not None:
                        store.save(result)
                    if result.block is not None:
                        blocks.setdefault(result.block[0],
                                          []).append(result)
                    else:
                        completed.append(result)
                    if tracker is not None:
                        tracker.shard_done(result.shard_id)
                        _notify()
                    emit("shard.done", shard=result.shard_id,
                         cycles=len(result.results),
                         replayed=result.replayed_cycles,
                         traces=_delta_total(result.metrics_delta,
                                             "sim_traces_total"),
                         cache_hits=_cache_total(result.metrics_delta,
                                                 "hits"),
                         cache_misses=_cache_total(
                             result.metrics_delta, "misses"),
                         **({"block": list(result.block)}
                            if result.block is not None else {}))
                retry: List[Shard] = []
                for shard, error in failed:
                    attempt = attempts.pop(shard)
                    if attempt >= max_retries:
                        _SHARDS_FAILED.inc()
                        emit("shard.failed", shard=shard.shard_id,
                             first=shard.first, last=shard.last,
                             attempts=attempt + 1, error=str(error))
                        raise StudyFailure(
                            f"shard of cycles {shard.first}-"
                            f"{shard.last} failed after {attempt + 1} "
                            f"attempts: {error}"
                        ) from error
                    _SHARD_RETRIES.inc(shard=shard.shard_id)
                    _log.warning("par.shard.retry",
                                 shard=shard.shard_id,
                                 first=shard.first, last=shard.last,
                                 attempt=attempt + 1,
                                 error=str(error))
                    emit("shard.retry", shard=shard.shard_id,
                         first=shard.first, last=shard.last,
                         attempt=attempt + 1, error=str(error))
                    children: List[Shard] = []
                    if subdivide and shard.block is not None:
                        index, count = shard.block
                        for child_block in ((2 * index, 2 * count),
                                            (2 * index + 1,
                                             2 * count)):
                            children.append(Shard(
                                shard_id=next_id, first=shard.first,
                                last=shard.last, block=child_block))
                            next_id += 1
                    elif subdivide and len(shard) > 1:
                        for half in shard_cycles(shard.first,
                                                 shard.last, 2):
                            children.append(Shard(
                                shard_id=next_id, first=half.first,
                                last=half.last))
                            next_id += 1
                    if children:
                        if tracker is not None:
                            tracker.abandon_shard(shard.shard_id)
                        emit("shard.subdivided",
                             parent=shard.shard_id,
                             children=[c.shard_id for c in children])
                        for child in children:
                            attempts[child] = attempt + 1
                            _register(child)
                            retry.append(child)
                    else:
                        attempts[shard] = attempt + 1
                        retry.append(shard)
                pending = retry
                round_index += 1

            # Assemble in cycle order: absorb restored and cycle-range
            # deltas as-is; reassemble pair-block cycles and pipeline
            # them in-process, exactly where a serial run would.
            registry = get_registry()
            results: List[CycleResult] = []
            shards_out: List[ShardResult] = []
            units = [(cycle, entry, None)
                     for cycle, entry in restored.items()]
            units.extend((r.results[0].cycle, r, None) for r in completed)
            for cycle, cycle_blocks in blocks.items():
                units.append((cycle, None, cycle_blocks))
            units.sort(key=lambda unit: unit[0])
            for cycle, whole, cycle_blocks in units:
                if whole is not None:
                    if whole.spans:
                        get_tracer().graft(whole.spans,
                                           shard=whole.shard_id)
                    registry.absorb(whole.metrics_delta)
                    flag = ({"restored": True} if cycle in restored
                            else {})
                    for result in whole.results:
                        emit("cycle.metrics", cycle=result.cycle,
                             metrics=result.metrics, **flag)
                    results.extend(whole.results)
                    shards_out.append(whole)
                    continue
                assembled, ordered = _assemble_cycle(
                    spec, cycle, cycle_blocks, pipeline, registry)
                if store is not None:
                    store.save(assembled)
                results.extend(assembled.results)
                shards_out.extend(ordered)

            # Post-study experiments (persistence sweeps, ramp
            # campaigns, label dynamics) run extra cycles on top of
            # the campaign's end state — replay the whole
            # control-plane evolution so that state matches a serial
            # run.  With a state store the seeding pass above already
            # left the simulator at the end state.
            if state_store is None:
                with span("par.fast_forward", cycles=spec.cycles):
                    simulator.fast_forward(1, spec.cycles)
    finally:
        if manager is not None:
            manager.shutdown()
    if resources:
        # The parent's own footprint (reassembly, absorption, replay),
        # after every delta window has closed.
        record_resources("parent", sample_resources())
    if health is not None:
        health.finish()
    _log.info("par.study.done", cycles=len(results),
              shards=len(shards_out))
    emit("study.done", cycles=len(results), shards=len(shards_out))
    return StudyRun(simulator=simulator, pipeline=pipeline,
                    results=results, shards=shards_out)


def _seed_state_store(simulator: ArkSimulator, state_store: StateStore,
                      cycles: int, stride: int) -> None:
    """Advance ``simulator`` to the campaign's end state, writing any
    missing stride snapshots on the way.

    The seeding pass itself warm-starts: it restores the newest usable
    snapshot that does not skip past a missing stride target, so a
    resumed or repeated study pays only for the snapshots it still
    lacks.  On completion the simulator holds the cycle-``cycles`` end
    state — the parallel runner's final ``fast_forward`` folded into
    the same pass.
    """
    targets = range(stride, cycles + 1, stride)
    missing = [cycle for cycle in targets
               if not state_store.has(cycle)]
    horizon = missing[0] if missing else cycles
    cursor = 0
    found = state_store.load_nearest(horizon)
    if found is not None:
        cursor, state = found
        simulator.internet.restore_state(state)
    remaining = set(missing)
    for cycle in range(cursor + 1, cycles + 1):
        simulator.fast_forward(cycle, cycle)
        if cycle in remaining:
            state_store.save(cycle, simulator.internet.capture_state())


def _cycle_entry(result: CycleResult,
                 delta: Dict[str, Any]) -> ShardResult:
    """One cycle as its own unit — the shape of a per-cycle checkpoint
    entry, whichever layout computed the cycle."""
    return ShardResult(shard_id=result.cycle - 1, results=[result],
                       metrics_delta=delta, replayed_cycles=0)


def _delta_total(delta: Dict[str, Any], name: str) -> float:
    """Sum of one metric's values across label sets in a delta."""
    data = delta.get(name)
    if not data:
        return 0
    return sum(entry["value"] for entry in data["values"])


_CACHE_METRICS = ("route_cache", "hop_cache", "quoted_stack_cache")


def _cache_total(delta: Dict[str, Any], side: str) -> float:
    """Combined cache ``hits``/``misses`` across the memoization
    layers (the per-process counters checkpoints strip)."""
    return sum(_delta_total(delta, f"{prefix}_{side}_total")
               for prefix in _CACHE_METRICS)


def _assemble_cycle(spec: StudySpec, cycle: int,
                    cycle_blocks: List[ShardResult],
                    pipeline: LprPipeline, registry
                    ) -> Tuple[ShardResult, List[ShardResult]]:
    """One cycle reassembled from its pair blocks, then pipelined.

    Blocks sort by their fractional start (``index/count`` — retry
    subdivision can mix granularities) and must tile [0, 1) exactly;
    each snapshot's traces are concatenated in that order, which is
    pair order.  The pipeline then runs in-process over the rebuilt
    :class:`CycleData`, and the cycle's metrics delta — absorbed block
    deltas plus the pipeline stages — matches a serial cycle's
    (modulo the layout-dependent cache counters the checkpoint layer
    strips).  Returns the cycle-level ShardResult (checkpointed under
    the serial key) plus the ordered blocks for accounting.
    """
    ordered = sorted(cycle_blocks,
                     key=lambda r: Fraction(r.block[1], r.block[2]))
    position = Fraction(0)
    for block in ordered:
        _cycle, index, count = block.block
        if Fraction(index, count) != position:
            raise StudyFailure(
                f"cycle {cycle}: pair blocks do not tile: expected a "
                f"block starting at {position}, got {index}/{count}")
        position = Fraction(index + 1, count)
    if position != 1:
        raise StudyFailure(
            f"cycle {cycle}: pair blocks cover only {position} of the "
            f"pair list")
    snapshots: List[list] = []
    for snapshot_index in range(spec.snapshots_per_cycle):
        merged: list = []
        for block in ordered:
            merged.extend(block.snapshots[snapshot_index])
        snapshots.append(merged)
    before = registry.snapshot()
    for block in ordered:
        if block.spans:
            get_tracer().graft(block.spans, shard=block.shard_id)
        registry.absorb(block.metrics_delta)
    result = pipeline.process_cycle(
        CycleData(cycle=cycle, snapshots=snapshots))
    assembled = _cycle_entry(
        result, registry.diff(before, registry.snapshot()))
    emit("cycle.assembled", cycle=cycle, blocks=len(ordered))
    emit("cycle.metrics", cycle=cycle, metrics=result.metrics)
    return assembled, ordered


def _drain(beats, on_beat: Callable[[Dict[str, Any]], None]) -> None:
    """Deliver every queued heartbeat to the parent-side callback."""
    if beats is None:
        return
    while True:
        try:
            beat = beats.get_nowait()
        except queue_module.Empty:
            return
        except Exception:
            # Manager connection torn down mid-run: heartbeats are
            # best-effort telemetry, never worth failing the study.
            return
        on_beat(beat)


def _dispatch(spec: StudySpec, shards: List[Shard], workers: int,
              attempts: Dict[Shard, int],
              fault_plan: Optional[FaultPlan],
              profile: bool = False,
              beats=None,
              on_beat: Optional[Callable[[Dict[str, Any]],
                                         None]] = None,
              state_dir=None,
              checkpoint_dir=None,
              resources: bool = False,
              watchdog: Optional[StallWatchdog] = None,
              on_tick: Optional[Callable[[], None]] = None,
              on_settle: Optional[Callable[[int], None]] = None
              ) -> Tuple[List[ShardResult],
                         List[Tuple[Shard, BaseException]]]:
    """One pool round: run every shard once, sorting survivors from
    casualties.  A broken pool (worker killed) fails every shard that
    had not finished; the pool itself is rebuilt next round.

    With a progress queue, the completion wait runs on a short timeout
    so heartbeats drain (and the progress line refreshes) while shards
    are still in flight; without one it blocks until each completion.
    A ``watchdog`` registers each submitted shard and ``on_tick`` runs
    after every drain, so stall deadlines are judged on the same pulse
    heartbeats arrive on; ``on_settle`` fires once per resolved future
    (success or failure), letting the runner unflag a stalled shard
    whose worker finally returned.
    """
    executed: List[ShardResult] = []
    failed: List[Tuple[Shard, BaseException]] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(shards)),
                             mp_context=_pool_context()) as pool:
        futures = {
            pool.submit(
                _run_shard,
                (spec, shard, attempts[shard],
                 fault_plan.for_shard(shard) if fault_plan else None,
                 profile, beats, state_dir, resources, checkpoint_dir),
            ): shard
            for shard in shards
        }
        for shard in shards:
            if watchdog is not None:
                watchdog.watch(shard.shard_id)
            emit("shard.dispatch", shard=shard.shard_id,
                 first=shard.first, last=shard.last,
                 attempt=attempts[shard] + 1,
                 **({"block": list(shard.block)}
                    if shard.block is not None else {}))
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending,
                timeout=0.2 if beats is not None else None,
                return_when=FIRST_COMPLETED)
            if on_beat is not None:
                _drain(beats, on_beat)
            if on_tick is not None:
                on_tick()
            for future in done:
                shard = futures[future]
                try:
                    executed.append(future.result())
                except Exception as error:  # incl. BrokenProcessPool
                    failed.append((shard, error))
                if on_settle is not None:
                    on_settle(shard.shard_id)
        if on_beat is not None:
            _drain(beats, on_beat)
    return executed, failed


def _run_serial(spec: StudySpec, store: Optional[CheckpointStore],
                fault_plan: Optional[FaultPlan],
                progress: Optional[Callable[[ProgressTracker],
                                            None]] = None,
                progress_clock: Optional[Clock] = None,
                state_store: Optional[StateStore] = None,
                snapshot_stride: int = DEFAULT_SNAPSHOT_STRIDE,
                resources: bool = False,
                health: Optional[HealthMonitor] = None
                ) -> StudyRun:
    """The in-process loop, with optional per-cycle checkpointing.

    Serially each cycle is its own checkpoint unit: a resumed run
    replays the control plane through checkpointed cycles (no probing)
    and absorbs their stored metrics deltas, so registry totals and
    results match an uninterrupted run exactly (modulo the stripped
    cache counters, which only ever count probes actually issued by
    this process).

    With a ``state_store`` the loop writes a control-plane snapshot
    after each probed stride-multiple cycle and the control-plane
    advance is *deferred*: a checkpointed cycle needs no simulator
    state, so over a run of restored cycles the loop stays put, then
    jumps the gap in one hop — nearest snapshot plus tail replay — when
    it next probes (or at the end, for the end state).  An interrupted
    ``--state-dir`` study therefore resumes warm instead of replaying
    its whole checkpointed prefix.

    A serial run is its own single "shard" on the progress tracker (one
    heartbeat per finished cycle), and emits the same ``cycle.metrics``
    events a parallel run does, so ``repro report`` reads both alike.
    With ``resources`` it samples itself once per cycle under shard
    label 0 — *after* the cycle's checkpoint delta window closed, so
    the persisted bytes never see a gauge — and beats ``health`` on
    the same cadence (the serial path's stall detection is the
    monitor's staleness rule, there being no per-shard watchdog).
    """
    simulator, pipeline = build_study(spec)
    registry = get_registry()
    sim_traces = registry.counter("sim_traces_total")
    traces_start = sim_traces.value()
    tracker: Optional[ProgressTracker] = None
    if progress is not None:
        tracker = ProgressTracker(spec.cycles,
                                  clock=progress_clock
                                  or MonotonicClock())
        tracker.add_shard(0, float(spec.cycles))
    results: List[CycleResult] = []
    # Last cycle whose control-plane evolution the simulator holds.
    state_cursor = 0

    def _advance_to(target: int) -> None:
        nonlocal state_cursor
        if target <= state_cursor:
            return
        if state_store is not None:
            found = state_store.load_nearest(target, after=state_cursor)
            if found is not None:
                state_cursor, state = found
                simulator.internet.restore_state(state)
        if state_cursor < target:
            simulator.fast_forward(state_cursor + 1, target)
            state_cursor = target

    for cycle in range(1, spec.cycles + 1):
        cached = (store.load(cycle)
                  if store is not None else None)
        if cached is not None:
            if state_store is None:
                _advance_to(cycle)
            registry.absorb(cached.metrics_delta)
            for result in cached.results:
                emit("cycle.metrics", cycle=result.cycle,
                     metrics=result.metrics, restored=True)
            results.extend(cached.results)
        else:
            if fault_plan is not None:
                fault = fault_plan.for_cycle(cycle)
                if fault is not None:
                    fault.maybe_fire(0, 0)
            _advance_to(cycle - 1)
            before = registry.snapshot() if store is not None else None
            result = pipeline.process_cycle(simulator.run_cycle(cycle))
            state_cursor = cycle
            results.append(result)
            emit("cycle.metrics", cycle=result.cycle,
                 metrics=result.metrics)
            if store is not None:
                store.save(_cycle_entry(
                    result, registry.diff(before, registry.snapshot())))
            if (state_store is not None
                    and cycle % snapshot_stride == 0
                    and not state_store.has(cycle)):
                state_store.save(cycle,
                                 simulator.internet.capture_state())
        if resources:
            record_resources(0, sample_resources())
        if health is not None:
            health.beat()
        if tracker is not None:
            tracker.heartbeat(
                0, cycles_done=cycle,
                traces=sim_traces.value() - traces_start)
            progress(tracker)
    _advance_to(spec.cycles)
    if tracker is not None:
        tracker.shard_done(0)
        progress(tracker)
    return StudyRun(simulator=simulator, pipeline=pipeline,
                    results=results)
