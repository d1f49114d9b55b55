"""The study runner: one plan, two executors.

A :class:`StudySpec` is the complete, picklable recipe for one
longitudinal campaign; :func:`build_study` turns it into a fresh
``(ArkSimulator, LprPipeline)`` pair.  Because every simulation object
is a pure function of the spec's seed (DESIGN §6), a worker process that
builds the same spec and fast-forwards to its shard's first cycle holds
exactly the network state the serial run would have there — label
allocators, TE sessions and all.

:func:`run_study` looks every cycle up once in the checkpoint store,
plans shards over the missing cycles
(:func:`~repro.par.shard.plan_shards`) and runs them — in-process on
the parent's own simulator with one worker, on a process pool
otherwise.  The pool's modules (``multiprocessing``,
``concurrent.futures``) load on the first pool round, so a serial
study never loads them (DESIGN §3, import layering).  Both executors
run a shard's cycles through one loop (:func:`_run_cycles`), which
fires staged faults (:mod:`repro.par.faults`) by cycle and keeps one
rule: **the process that runs a cycle persists it**.  Right after a
cycle's heartbeat it saves the cycle's checkpoint and, on a stride
multiple, its control-plane snapshot, so cycle *k*'s bytes are the
same whatever the layout (DESIGN §8) and a failed shard keeps the
cycles it finished.  A pool parent therefore holds no simulator while
it forks: it dispatches first and builds its own after the last pool
round.  Results are assembled in cycle order and the parent simulator
ends in the campaign's end state, so post-study experiments (Figs 6,
16, 17 re-run cycles on top of it) see exactly what an uninterrupted
serial run leaves behind.

The runner is also the **flight recorder's** main instrument
(DESIGN §9): it emits study/shard/cycle lifecycle events and a
``shard.heartbeat`` (cycles done, traces simulated) after every cycle.
Pool workers forward every event they emit — heartbeats, cycle, cache
and store facts alike — to the parent over one queue per pool round,
and the parent re-emits them on its own bus, where the progress
tracker, health monitor, resource gauges and log sink subscribe.  When
the caller profiles, every worker's span tree is grafted under the
study span so ``--profile`` and ``--trace-out`` account for time spent
*inside* workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.pipeline import CycleResult, LprPipeline
from ..obs import (
    Clock,
    EventBus,
    MonotonicClock,
    NullClock,
    Span,
    StallWatchdog,
    Tracer,
    absorb_event,
    delta_total,
    emit,
    get_event_bus,
    get_registry,
    get_tracer,
    sample_resources,
    set_event_bus,
    set_tracer,
    span,
)
from ..options import DEFAULT_BACKOFF_BASE, DEFAULT_MAX_RETRIES, \
    DEFAULT_SNAPSHOT_STRIDE
from ..sim import ArkSimulator
from ..sim.scenarios import CYCLES, paper_scenario
from ..traces import gc_paused
from .checkpoint import CheckpointStore
from .faults import FaultPlan
from .shard import Shard, plan_shards, shard_cycles
from .statestore import StateStore

_SHARDS_RUN = get_registry().counter(
    "par_shards_total", "Shards executed by study runs", execution=True)
_SHARD_CYCLES = get_registry().counter(
    "par_shard_cycles_total", "Cycles processed per shard of a study run",
    execution=True)
_CYCLES_REPLAYED = get_registry().counter(
    "par_cycles_replayed_total",
    "Cycles fast-forwarded (control-plane replay, no probes)",
    execution=True)
_SHARD_RETRIES = get_registry().counter(
    "par_shard_retries_total",
    "Shard re-dispatches after a worker death or shard exception",
    execution=True)
_SHARDS_FAILED = get_registry().counter(
    "par_shards_failed_total",
    "Shards that exhausted their retry budget (aborts the study)",
    execution=True)
_SHARDS_STALLED = get_registry().counter(
    "par_shards_stalled_total",
    "Shards flagged silent past the --stall-timeout deadline",
    execution=True)


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
    """What one pool worker sends back: results plus its metrics delta.

    ``metrics_delta`` covers the whole shard, prefix replay included,
    and is what the parent absorbs.
    """

    shard_id: int
    results: List[CycleResult]
    metrics_delta: Dict[str, Any]
    replayed_cycles: int
    spans: Optional[List[Span]] = None
    """The worker's tracer roots, returned only on profiled runs and
    grafted under the parent's study span."""


@dataclass
class StudyRun:
    """One executed campaign: end-state simulator + ordered results."""

    simulator: ArkSimulator
    pipeline: LprPipeline
    results: List[CycleResult]
    shards: List[ShardResult] = field(default_factory=list)
    """The pool shards this run executed, in cycle order (empty when
    the shards ran in-process)."""


def _advance(simulator: ArkSimulator, cursor: int, target: int,
             state_store: Optional[StateStore],
             listed: Optional[Tuple[int, ...]] = None) -> int:
    """Move ``simulator`` from the state after cycle ``cursor`` to the
    state after ``target``; returns the cycles replayed.

    With a state store the newest usable snapshot in ``(cursor,
    target]`` — among ``listed`` when given — is restored first and
    only the tail is replayed.  Probing never mutates the control
    plane (DESIGN §6), so the state is byte-identical either way.
    """
    if target <= cursor:
        return 0
    if state_store is not None:
        found = state_store.load_nearest(target, after=cursor,
                                         listed=listed)
        if found is not None:
            cursor, state = found
            simulator.internet.restore_state(state)
    if cursor < target:
        simulator.fast_forward(cursor + 1, target)
    return target - cursor


def _heartbeat(shard_id: int, resources: bool, cycles_done: int = 0,
               traces: float = 0) -> None:
    """One liveness and progress beat of a running shard; with
    ``resources`` set, also a resource sample of *this* process."""
    emit("shard.heartbeat", shard=shard_id, cycles_done=cycles_done,
         traces=traces)
    if resources:
        emit("worker.resources", shard=shard_id, **sample_resources())


def _run_cycles(shard: Shard, simulator: ArkSimulator,
                pipeline: LprPipeline, fault_plan: Optional[FaultPlan],
                attempt: int, resources: bool,
                store: Optional[CheckpointStore],
                state_store: Optional[StateStore], stride: int
                ) -> List[CycleResult]:
    """Run a shard's cycles on a simulator holding the state after
    ``shard.first - 1`` and persist each one in this process.

    After a cycle's heartbeat its checkpoint is saved and, on a
    ``stride`` multiple, its control-plane snapshot — unless a
    verified one is already there.  A cycle that raises leaves the
    cycles before it saved.  The loop takes no registry snapshot: a
    cycle's metrics are the pipeline's own window, already on its
    result.
    """
    sim_traces = get_registry().counter("sim_traces_total")
    traces_start = sim_traces.value()
    results: List[CycleResult] = []
    for done, cycle in enumerate(shard.cycles, 1):
        # The cycle's traces are built and die inside one GC-quiet
        # scope; persisting it runs outside.
        with gc_paused():
            if fault_plan is not None:
                fault_plan.maybe_fire(cycle, attempt)
            result = pipeline.process_cycle(simulator.run_cycle(cycle))
        _heartbeat(shard.shard_id, resources, done,
                   sim_traces.value() - traces_start)
        if store is not None:
            store.save(result)
        if (state_store is not None and cycle % stride == 0
                and state_store.load(cycle) is None):
            state_store.save(cycle, simulator.internet.capture_state())
        results.append(result)
    return results


def _forward_events(queue) -> None:
    """Pool worker initializer: every event this process emits goes to
    the parent over ``queue``, which re-emits it on its own bus.

    The worker's bus keeps nothing and writes no sink, so a sink file
    descriptor or log sink inherited over ``fork`` is never used here.
    """
    bus = EventBus(keep=0)
    bus.subscribe(lambda event: queue.put((event.kind, event.fields)))
    set_event_bus(bus, carry=False)


def _run_shard(
    args: Tuple[StudySpec, Shard, int, Optional[FaultPlan], bool, bool,
                Optional[CheckpointStore], Optional[StateStore], int,
                Optional[Tuple[int, ...]]]
) -> ShardResult:
    """Pool worker entry: reconstruct state, run the shard locally.

    The worker installs a fresh tracer — monotonic when the parent
    profiles, so the returned ``par.worker`` span tree carries real
    durations the parent grafts into its own trace.  It beats on
    entry and after the prefix replay — what arms the stall
    watchdog's deadline — then once per finished cycle, and persists
    each cycle itself (:func:`_run_cycles`).

    With a state store the worker warm-starts from the newest usable
    snapshot at or before ``first - 1`` among ``listed``, the
    snapshots on disk when the run planned its shards, so which one it
    restores never depends on what a sibling wrote meanwhile;
    ``replayed_cycles`` records what was actually replayed.
    """
    (spec, shard, attempt, fault_plan, profile, resources, store,
     state_store, stride, listed) = args
    tracer = set_tracer(Tracer(MonotonicClock() if profile
                               else NullClock()))
    _heartbeat(shard.shard_id, resources)
    simulator, pipeline = build_study(spec)
    registry = get_registry()
    before = registry.snapshot()
    with tracer.span("par.worker", first=shard.first, last=shard.last):
        replayed = _advance(simulator, 0, shard.first - 1, state_store,
                            listed)
        if shard.first > 1:
            _heartbeat(shard.shard_id, resources)  # prefix replayed
        results = _run_cycles(shard, simulator, pipeline, fault_plan,
                              attempt, resources, store, state_store,
                              stride)
    return ShardResult(
        shard_id=shard.shard_id,
        results=results,
        metrics_delta=registry.diff(before, registry.snapshot()),
        replayed_cycles=replayed,
        spans=tracer.roots if profile else None,
    )


def _pool_context():
    """Fork where the platform offers it (cheap, shares the warm
    imports); spawn otherwise.  Workers derive everything from the
    pickled spec either way, so the start method never affects output.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_study(spec: StudySpec, workers: int = 1, *,
              max_retries: int = DEFAULT_MAX_RETRIES,
              backoff_base: float = DEFAULT_BACKOFF_BASE,
              checkpoint_dir=None,
              state_dir=None,
              snapshot_stride: int = DEFAULT_SNAPSHOT_STRIDE,
              fault_plan: Optional[FaultPlan] = None,
              sleep: Callable[[float], None] = time.sleep,
              resources: bool = False,
              stall_timeout: Optional[float] = None,
              stall_clock: Optional[Clock] = None) -> StudyRun:
    """Execute a campaign over ``workers`` (>= 1) executors.

    The one place that declares, defaults and documents how a campaign
    executes; the CLI and :func:`repro.analysis.run_longitudinal_study`
    forward their options here unchanged.  The default values live in
    :mod:`repro.options`, which the CLI's parser reads too.

    Results come back ordered by cycle whatever the pool's scheduling,
    and each pool shard's metrics delta is absorbed into this process's
    registry, so the counters of the cycles this run executed
    reconcile exactly with a serial run.  A cycle restored from a
    checkpoint contributes its ``result.metrics`` only — the LPR
    result families — so ``sim_*``, ``probes_*`` and the cache
    counters count only the probing this run did.  With one worker
    the shards run in this process on the parent's own simulator: no
    queue, no pickling and no registry snapshot beyond the pipeline's
    own per-cycle window.

    Failure handling (pool only): a shard whose worker dies or raises
    is re-dispatched up to ``max_retries`` times, sleeping
    ``backoff_base * 2^round`` seconds between rounds (``sleep`` is
    injectable for tests); on retry a multi-cycle shard splits into
    halves, so a single bad allocation or kill costs only part of the
    work.  When every retry is exhausted the study aborts with
    :class:`StudyFailure`.

    With ``checkpoint_dir`` set every finished cycle is persisted
    through a :class:`CheckpointStore` under its cycle by the process
    that ran it, with identical bytes whichever executor that was —
    also when its shard fails later; a restarted run looks every cycle
    up once, restores the hits and plans shards over the missing
    cycles only, so any worker layout resumes from any other.
    ``fault_plan`` is the test-only injection hook
    (:mod:`repro.par.faults`); production runs leave it None.

    With ``state_dir`` set, control-plane snapshots are shared through
    a :class:`StateStore` every ``snapshot_stride`` cycles: whoever
    runs a stride cycle saves its snapshot unless a verified one is
    there (a rejected file is rewritten), and whoever must reach a
    cycle restores the nearest snapshot ≤ it and replays only the
    tail — a pool worker among the snapshots listed when the run
    planned its shards, the pool parent among all of them once the
    pool is done.  A cycle restored from a checkpoint that has no
    snapshot stays without one.  Snapshots only shortcut
    :meth:`~repro.sim.ark.ArkSimulator.fast_forward` — never probing —
    so output stays byte-identical with or without them.

    Telemetry (DESIGN §9): lifecycle events (``study.start``,
    ``study.plan`` with the restored count and each shard's range,
    ``shard.dispatch``/``heartbeat``/``done``/``retry``,
    ``cycle.metrics`` with each cycle's result metrics, ``study.done``)
    go to the current :mod:`repro.obs.events` bus, pool workers' events
    included; progress, health and log consumers subscribe to it.

    The live telemetry plane (DESIGN §12) adds two opt-ins, both
    default-off so the determinism contract stands.  ``resources=True``
    makes every process that beats (workers, the in-process executor
    and, once at the end, the parent) emit a ``worker.resources``
    RSS/CPU/GC sample, folded into ``worker_*`` gauges of *this*
    process's registry — never into results or checkpoints.
    ``stall_timeout`` arms a heartbeat-deadline
    :class:`~repro.obs.watchdog.StallWatchdog` over pool shards
    (``stall_clock`` injectable for tests): a shard silent past the
    deadline gets a ``shard.stalled`` event and a
    ``par_shards_stalled_total`` bump; a later beat or completion
    emits ``shard.recovered``.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
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
    watchdog = (StallWatchdog(stall_timeout, clock=stall_clock)
                if stall_timeout is not None else None)

    def _pool_round(pending: List[Shard]
                    ) -> Tuple[List[ShardResult],
                               List[Tuple[Shard, BaseException]]]:
        """Run every pending shard once on a fresh pool, sorting
        survivors from casualties; a broken pool (worker killed) fails
        every shard that had not finished.

        The completion wait runs on a short pulse that re-emits the
        workers' queued events and judges stall deadlines while shards
        are still in flight.  A shard flagged stalled is unflagged once
        its future resolves, result or error.
        """
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        profile = not isinstance(get_tracer().clock, NullClock)
        executed: List[ShardResult] = []
        failed: List[Tuple[Shard, BaseException]] = []
        context = _pool_context()
        # A fresh queue each round: a worker killed mid-put can leave a
        # queue's shared write lock held.  A SimpleQueue has no feeder
        # thread, so a finished shard's events are already in the pipe
        # and no worker exit waits on unsent data.
        queue = context.SimpleQueue()

        def forward() -> None:
            while not queue.empty():
                kind, fields = queue.get()
                emit(kind, **fields)
                if (watchdog is not None and kind == "shard.heartbeat"
                        and watchdog.beat(fields["shard"])):
                    emit("shard.recovered", shard=fields["shard"])

        with ProcessPoolExecutor(max_workers=min(workers, len(pending)),
                                 mp_context=context,
                                 initializer=_forward_events,
                                 initargs=(queue,)) as pool:
            futures = {
                pool.submit(_run_shard, (
                    spec, shard, attempts[shard], fault_plan, profile,
                    resources, store, state_store, snapshot_stride,
                    listed)): shard
                for shard in pending}
            for shard in pending:
                if watchdog is not None:
                    watchdog.watch(shard.shard_id)
                emit("shard.dispatch", shard=shard.shard_id,
                     first=shard.first, last=shard.last,
                     attempt=attempts[shard] + 1)
            waiting = set(futures)
            while waiting:
                done, waiting = wait(waiting, timeout=0.2,
                                     return_when=FIRST_COMPLETED)
                forward()
                for shard_id in (watchdog.check() if watchdog is not None
                                 else ()):
                    _SHARDS_STALLED.inc(shard=shard_id)
                    emit("shard.stalled", shard=shard_id,
                         timeout=stall_timeout)
                for future in done:
                    shard = futures[future]
                    try:
                        executed.append(future.result())
                    except Exception as error:  # incl. BrokenProcessPool
                        failed.append((shard, error))
                    if (watchdog is not None
                            and watchdog.clear(shard.shard_id)):
                        emit("shard.recovered", shard=shard.shard_id)
        forward()
        queue.close()
        return executed, failed

    def _finish(shard_id: int, cycles: int, replayed: int,
                traces: float) -> None:
        """Account for one executed shard, whichever executor ran it."""
        _SHARDS_RUN.inc()
        _SHARD_CYCLES.inc(cycles, shard=shard_id)
        _CYCLES_REPLAYED.inc(replayed)
        emit("shard.done", shard=shard_id, cycles=cycles,
             replayed=replayed, traces=traces)

    unsubscribe = (get_event_bus().subscribe(absorb_event)
                   if resources else None)
    emit("study.start", cycles=spec.cycles, workers=workers)
    try:
        with span("par.study", cycles=spec.cycles, workers=workers):
            # Look every cycle up once: whatever layout wrote a cycle's
            # entry, it is reused, and only the missing cycles run.
            restored: Dict[int, CycleResult] = {}
            if store is not None:
                for cycle in range(1, spec.cycles + 1):
                    result = store.load(cycle)
                    if result is not None:
                        restored[cycle] = result
            shards = plan_shards((cycle for cycle in
                                  range(1, spec.cycles + 1)
                                  if cycle not in restored), workers)
            emit("study.plan", shards=len(shards), workers=workers,
                 restored=len(restored),
                 ranges=[[shard.first, shard.last] for shard in shards])
            executed: Dict[int, CycleResult] = {}
            completed: List[ShardResult] = []
            cursor = 0
            if workers == 1:
                # The shards run on the parent's own simulator; its
                # control plane only moves forward, jumping restored
                # gaps in one hop (snapshot plus tail replay).
                simulator, pipeline = build_study(spec)
                sim_traces = get_registry().counter("sim_traces_total")
                for shard in shards:
                    emit("shard.dispatch", shard=shard.shard_id,
                         first=shard.first, last=shard.last, attempt=1)
                    replayed = _advance(simulator, cursor,
                                        shard.first - 1, state_store)
                    traces_start = sim_traces.value()
                    for result in _run_cycles(
                            shard, simulator, pipeline, fault_plan, 0,
                            resources, store, state_store,
                            snapshot_stride):
                        executed[result.cycle] = result
                    cursor = shard.last
                    _finish(shard.shard_id, len(shard), replayed,
                            sim_traces.value() - traces_start)
            else:
                # Workers fork from a parent that holds no simulator
                # yet, and restore only the snapshots listed now.
                listed = (tuple(state_store.cycles())
                          if state_store is not None else None)
                pending = list(shards)
                attempts: Dict[Shard, int] = {s: 0 for s in shards}
                next_id = len(shards)
                round_index = 0
                while pending:
                    if round_index > 0:
                        delay = backoff_base * (2 ** (round_index - 1))
                        if delay > 0:
                            sleep(delay)
                    done_round, failed = _pool_round(pending)
                    for result in done_round:
                        for cycle_result in result.results:
                            executed[cycle_result.cycle] = cycle_result
                        completed.append(result)
                        _finish(result.shard_id, len(result.results),
                                result.replayed_cycles,
                                delta_total(result.metrics_delta,
                                            "sim_traces_total"))
                    pending = []
                    for shard, error in failed:
                        attempt = attempts.pop(shard)
                        if attempt >= max_retries:
                            _SHARDS_FAILED.inc()
                            emit("shard.failed", shard=shard.shard_id,
                                 first=shard.first, last=shard.last,
                                 attempts=attempt + 1, error=str(error))
                            raise StudyFailure(
                                f"shard of cycles {shard.first}-"
                                f"{shard.last} failed after "
                                f"{attempt + 1} attempts: {error}"
                            ) from error
                        _SHARD_RETRIES.inc(shard=shard.shard_id)
                        emit("shard.retry", shard=shard.shard_id,
                             first=shard.first, last=shard.last,
                             attempt=attempt + 1, error=str(error))
                        children = [shard]
                        if len(shard) > 1:
                            children = [
                                Shard(shard_id=next_id + index,
                                      first=half.first, last=half.last)
                                for index, half in enumerate(
                                    shard_cycles(shard.first,
                                                 shard.last, 2))]
                            next_id += len(children)
                            emit("shard.subdivided",
                                 parent=shard.shard_id,
                                 children=[c.shard_id for c in children])
                        for child in children:
                            attempts[child] = attempt + 1
                            pending.append(child)
                    round_index += 1
                # The parent simulator never probes; its end state
                # backs post-study experiments and is reached below.
                simulator, pipeline = build_study(spec)

            # Assemble in cycle order: graft and absorb what the pool
            # sent home, absorb restored cycles' result metrics, and
            # emit every cycle's metrics exactly where a serial run's
            # would sit.
            registry = get_registry()
            completed.sort(key=lambda result: result.results[0].cycle)
            for result in completed:
                if result.spans:
                    get_tracer().graft(result.spans,
                                       shard=result.shard_id)
                registry.absorb(result.metrics_delta)
            results: List[CycleResult] = []
            for cycle in range(1, spec.cycles + 1):
                if cycle in restored:
                    result = restored[cycle]
                    registry.absorb(result.metrics)
                    emit("cycle.metrics", cycle=cycle,
                         metrics=result.metrics, restored=True)
                else:
                    result = executed[cycle]
                    emit("cycle.metrics", cycle=cycle,
                         metrics=result.metrics)
                results.append(result)

            # Post-study experiments run extra cycles on top of the
            # campaign's end state, so the parent simulator must hold
            # it — restored from the newest snapshot and replayed here
            # unless in-process execution left it there already.
            if cursor < spec.cycles:
                with span("par.fast_forward",
                          cycles=spec.cycles - cursor):
                    _advance(simulator, cursor, spec.cycles,
                             state_store)
        if resources:
            # The parent's own footprint, after every delta window
            # closed.
            emit("worker.resources", shard="parent",
                 **sample_resources())
    finally:
        if unsubscribe is not None:
            unsubscribe()
    emit("study.done", cycles=len(results), shards=len(completed))
    return StudyRun(simulator=simulator, pipeline=pipeline,
                    results=results, shards=completed)

