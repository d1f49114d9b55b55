"""Command-line interface.

Seven subcommands mirror the measurement workflow:

* ``simulate`` — run the simulated Archipelago for some cycles, writing
  one warts-like archive per snapshot plus the matching pfx2as table;
* ``show`` — pretty-print traces from an archive;
* ``classify`` — run LPR over archived snapshots and print the filter
  and classification report;
* ``audit`` — per-AS MPLS usage profiles from archived snapshots;
* ``study`` — regenerate paper artifacts from a fresh longitudinal run.
  Flight-recorder flags: ``--progress`` (live status line on stderr),
  ``--events-out`` (append-only JSONL event log), ``--trace-out``
  (Chrome trace-event JSON, loadable in Perfetto).  Live telemetry
  plane (DESIGN §12): ``--serve-telemetry [HOST:]PORT`` starts a
  background HTTP server with ``/metrics``, ``/healthz``,
  ``/progress`` and ``/events`` endpoints and turns on per-process
  resource sampling; ``--stall-timeout SECS`` arms the
  heartbeat-deadline watchdog;
* ``report`` — reconstruct a past study from its flight-recorder
  files, as text or (``--format json``) one JSON object;
* ``verify`` — the differential oracle: execute one spec through every
  fast-path configuration (workers, no-memo, checkpoint resume,
  warm-start state store, archive round-trips), diff canonical
  artifacts against the serial reference, audit invariants, and
  auto-shrink any divergence to a minimal reproducing spec.

Example round trip::

    repro simulate --cycles 2 --out /tmp/campaign
    repro classify --cycle-dir /tmp/campaign/cycle-01
    repro study --artifacts table1 fig7
    repro study --workers 4 --progress --events-out events.jsonl \\
        --trace-out trace.json --artifacts table1
    repro report events.jsonl --trace trace.json
    repro verify --cycles 4 --scale 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .analysis import (
    ALL_ARTIFACTS,
    flight_report,
    flight_report_data,
    format_table,
    regenerate,
    run_longitudinal_study,
)
from .core import LprPipeline
from .core.report import render_report
from .core.revelation import TunnelVisibility, visibility_census
from .net.ip2as import Ip2AsMapper
from .par import DEFAULT_SNAPSHOT_STRIDE, StudySpec
from .par.runner import DEFAULT_BACKOFF_BASE, DEFAULT_MAX_RETRIES
from .obs import (
    EventBus,
    HealthMonitor,
    MonotonicClock,
    ProgressPrinter,
    ProgressTracker,
    TelemetryServer,
    Tracer,
    configure_logging,
    emit,
    get_event_bus,
    get_registry,
    get_tracer,
    parse_endpoint,
    set_event_bus,
    set_tracer,
    write_chrome_trace,
    write_metrics_json,
)
from .sim import ArkSimulator, paper_scenario
from .sim.scenarios import check_scale
from .traces import Trace
from .verify import CONFIG_NAMES, default_matrix, run_matrix
from .warts import WartsError, read_archive, salvage_archive, \
    write_archive


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPLS Under the Microscope — reproduction toolkit",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="verbosity of structured logs on stderr")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines instead of "
                             "key=value text")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        metavar="FILE",
                        help="write a JSON metrics snapshot (and any "
                             "recorded spans) after the command")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run measurement cycles, write archives")
    simulate.add_argument("--cycles", type=int, default=1)
    simulate.add_argument("--first-cycle", type=int, default=1)
    simulate.add_argument("--scale", type=float, default=1.0)
    simulate.add_argument("--seed", type=int, default=2015)
    simulate.add_argument("--out", type=Path, required=True,
                          help="output directory")

    show = sub.add_parser("show", help="print traces from an archive")
    show.add_argument("--archive", type=Path, required=True)
    show.add_argument("--limit", type=int, default=5)
    show.add_argument("--mpls-only", action="store_true",
                      help="only traces crossing an explicit tunnel")
    show.add_argument("--tolerant", action="store_true",
                      help="salvage corrupt archives: skip bad records "
                           "(reported by reason) instead of aborting")

    classify = sub.add_parser(
        "classify", help="run LPR over one cycle's archived snapshots")
    classify.add_argument("--cycle-dir", type=Path, required=True,
                          help="directory written by 'simulate' for "
                               "one cycle")
    classify.add_argument("--persistence-window", type=int, default=2)
    classify.add_argument("--php-heuristic", action="store_true")
    classify.add_argument("--tolerant", action="store_true",
                          help="salvage corrupt snapshot archives "
                               "instead of aborting")

    audit = sub.add_parser(
        "audit", help="per-AS usage report from archived snapshots")
    audit.add_argument("--cycle-dir", type=Path, required=True)
    audit.add_argument("--limit", type=int, default=None,
                       help="only the N busiest ASes")

    study = sub.add_parser(
        "study", help="regenerate paper tables/figures")
    study.add_argument("--cycles", type=int, default=60)
    study.add_argument("--scale", type=float, default=1.0)
    study.add_argument("--seed", type=int, default=2015)
    study.add_argument("--artifacts", nargs="+",
                       default=["table1", "fig7"],
                       choices=list(ALL_ARTIFACTS))
    study.add_argument("--workers", type=int, default=1, metavar="N",
                       help="shard the study over N worker processes; "
                            "a shard is at least one whole cycle, so "
                            "workers beyond the cycle count stay idle "
                            "(byte-identical output either way; "
                            "default serial)")
    study.add_argument("--profile", action="store_true",
                       help="time every pipeline stage and print a "
                            "per-stage breakdown table")
    study.add_argument("--checkpoint-dir", type=Path, default=None,
                       metavar="DIR",
                       help="persist every finished cycle here; a "
                            "restarted study replays only unfinished "
                            "cycles, whatever the worker count (keyed "
                            "by the study spec's hash)")
    study.add_argument("--state-dir", type=Path, default=None,
                       metavar="DIR",
                       help="share warm-start control-plane snapshots "
                            "here: workers and resumed studies restore "
                            "the nearest snapshot and replay only the "
                            "tail instead of every earlier cycle "
                            "(byte-identical output; keyed by the "
                            "study spec's hash)")
    study.add_argument("--snapshot-stride", type=int,
                       default=DEFAULT_SNAPSHOT_STRIDE, metavar="N",
                       help="cycles between state snapshots when "
                            "--state-dir is set (default "
                            f"{DEFAULT_SNAPSHOT_STRIDE}; smaller = "
                            "shorter tail replay, more disk)")
    study.add_argument("--max-retries", type=int,
                       default=DEFAULT_MAX_RETRIES, metavar="N",
                       help="re-dispatch a crashed shard up to N times "
                            "(exponential backoff) before aborting")
    study.add_argument("--backoff-base", type=float,
                       default=DEFAULT_BACKOFF_BASE, metavar="SECONDS",
                       help="base delay of the exponential retry "
                            "backoff (attempt k sleeps base * 2^k; "
                            f"default {DEFAULT_BACKOFF_BASE}, must be "
                            ">= 0)")
    study.add_argument("--progress", action="store_true",
                       help="live one-line progress on stderr (cycles "
                            "done, shards, traces, ETA), fed by worker "
                            "heartbeats")
    study.add_argument("--events-out", type=Path, default=None,
                       metavar="FILE",
                       help="append flight-recorder events (study/"
                            "shard/cycle lifecycle, JSONL) to FILE; "
                            "read back with 'repro report'")
    study.add_argument("--trace-out", type=Path, default=None,
                       metavar="FILE",
                       help="write the span tree (parent and worker) "
                            "as Chrome trace-event JSON, loadable in "
                            "Perfetto")
    study.add_argument("--serve-telemetry", default=None,
                       metavar="[HOST:]PORT",
                       help="serve live telemetry over HTTP while the "
                            "study runs (/metrics Prometheus text, "
                            "/healthz liveness, /progress JSON, "
                            "/events ring-buffer tail) and sample "
                            "per-process RSS/CPU/GC on every "
                            "heartbeat; port 0 picks a free port — "
                            "the bound URL is printed on stderr")
    study.add_argument("--stall-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="flag a shard as stalled (shard.stalled "
                            "event, par_shards_stalled_total metric, "
                            "503 on /healthz) when its heartbeats go "
                            "silent this long; off by default")

    report = sub.add_parser(
        "report", help="reconstruct a study from flight-recorder files")
    report.add_argument("events", type=Path,
                        help="events JSONL written by --events-out")
    report.add_argument("--trace", type=Path, default=None,
                        metavar="FILE",
                        help="Chrome trace JSON written by --trace-out "
                             "(adds per-stage times + slowest cycles)")
    report.add_argument("--top", type=int, default=5, metavar="N",
                        help="how many slowest cycles to list")
    report.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="text report or one machine-readable "
                             "JSON object with the same sections")

    verify = sub.add_parser(
        "verify", help="differential oracle: prove every fast path "
                       "equals the serial reference")
    verify.add_argument("--cycles", type=int, default=4)
    verify.add_argument("--scale", type=float, default=0.25)
    verify.add_argument("--seed", type=int, default=2015)
    verify.add_argument("--snapshots-per-cycle", type=int, default=2)
    verify.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker-process count exercised by the "
                             "'workers' configuration (default 2)")
    verify.add_argument("--configs", nargs="+", default=None,
                        choices=list(CONFIG_NAMES), metavar="NAME",
                        help="run only these configurations (default: "
                             f"the full matrix: "
                             f"{', '.join(CONFIG_NAMES)})")
    verify.add_argument("--workdir", type=Path, default=None,
                        metavar="DIR",
                        help="scratch directory for checkpoint/state/"
                             "archive stores (default: a temporary "
                             "directory, removed afterwards)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="report divergences without shrinking "
                             "them to minimal reproducing specs")
    verify.add_argument("--events-out", type=Path, default=None,
                        metavar="FILE",
                        help="append verify.* flight-recorder events "
                             "(JSONL) to FILE; read back with "
                             "'repro report'")
    return parser


def _scale_error(scale: float) -> bool:
    """Print the one-line --scale error; True when ``scale`` is bad."""
    try:
        check_scale(scale)
    except ValueError as error:
        print(f"--{error}", file=sys.stderr)
        return True
    return False


def cmd_simulate(args) -> int:
    if _scale_error(args.scale):
        return 2
    simulator = ArkSimulator(
        paper_scenario(scale=args.scale, seed=args.seed))
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "pfx2as.txt", "w", encoding="utf-8") as stream:
        simulator.internet.ip2as.dump(stream)
    last = args.first_cycle + args.cycles - 1
    for cycle in range(args.first_cycle, last + 1):
        data = simulator.run_cycle(cycle)
        cycle_dir = args.out / f"cycle-{cycle:02d}"
        cycle_dir.mkdir(exist_ok=True)
        for index, snapshot in enumerate(data.snapshots):
            path = cycle_dir / f"snapshot-{index}.rwts"
            count = write_archive(path, snapshot)
            print(f"wrote {count:5d} traces -> {path}")
    return 0


def cmd_show(args) -> int:
    if args.limit < 0:
        print(f"--limit must be >= 0, got {args.limit}", file=sys.stderr)
        return 2
    try:
        traces, skipped = _read_snapshot(args.archive, args.tolerant)
    except (FileNotFoundError, WartsError) as error:
        return _archive_failure(error, args.tolerant)
    shown = 0
    for trace in traces:
        if shown >= args.limit:
            break
        if args.mpls_only and not trace.has_mpls:
            continue
        print(trace)
        print()
        shown += 1
    print(f"({shown} of {len(traces)} traces shown)")
    if skipped:
        print(_salvage_summary(skipped), file=sys.stderr)
    return 0


def _archive_failure(error: Exception, tolerant: Optional[bool]) -> int:
    """Report a missing or corrupt archive on one line; exit status 1.

    ``tolerant`` is None for commands without a ``--tolerant`` flag;
    a strict read of a corrupt archive points at the flag.
    """
    message = str(error)
    if isinstance(error, WartsError) and tolerant is False:
        message += " (rerun with --tolerant to salvage)"
    print(message, file=sys.stderr)
    return 1


def _salvage_summary(skipped: dict) -> str:
    detail = ", ".join(f"{reason}={count}"
                       for reason, count in sorted(skipped.items()))
    return (f"salvage: skipped {sum(skipped.values())} corrupt "
            f"record(s): {detail}")


def cmd_classify(args) -> int:
    if args.persistence_window < 0:
        print(f"--persistence-window must be >= 0, "
              f"got {args.persistence_window}", file=sys.stderr)
        return 2
    try:
        ip2as, snapshots, skipped = _load_cycle(
            args.cycle_dir, tolerant=args.tolerant)
    except (FileNotFoundError, WartsError) as error:
        return _archive_failure(error, args.tolerant)
    if skipped:
        print(_salvage_summary(skipped), file=sys.stderr)

    pipeline = LprPipeline(
        ip2as, persistence_window=args.persistence_window,
        php_heuristic=args.php_heuristic)
    result = pipeline.process_snapshots(
        _cycle_number(args.cycle_dir), snapshots)

    stats = result.filter_stats
    print(f"traces: {result.stats.trace_count}, with tunnels: "
          f"{result.stats.traces_with_tunnels} "
          f"({result.stats.tunnel_trace_share:.1%})")
    census = visibility_census(snapshots[0])
    print()
    print(format_table(
        ["tunnel visibility", "tunnels", "traces with"],
        [[visibility.value, census.tunnels[visibility],
          census.traces_with[visibility]]
         for visibility in TunnelVisibility],
    ))
    print()
    print(format_table(
        ["filter", "surviving LSPs"],
        [["extracted", stats.extracted],
         ["incomplete", stats.after_incomplete],
         ["intra-AS", stats.after_intra_as],
         ["target-AS", stats.after_target_as],
         ["transit diversity", stats.after_transit_diversity],
         ["persistence", stats.after_persistence]],
    ))
    if stats.reinjected_ases:
        print(f"dynamic ASes (re-injected): {stats.reinjected_ases}")
    print()
    counts = result.classification.counts()
    total = sum(counts.values())
    print(format_table(
        ["class", "IOTPs", "share"],
        [[tunnel_class.value, count,
          f"{count / total:.2f}" if total else "0.00"]
         for tunnel_class, count in counts.items()],
    ))
    return 0


def _load_cycle(cycle_dir: Path, tolerant: bool = False
                ) -> Tuple[Ip2AsMapper, List[List[Trace]], dict]:
    """Read one simulated cycle (pfx2as table + every snapshot).

    ``tolerant`` salvages corrupt archives; the third return value
    tallies the records skipped across all snapshots (empty in strict
    mode — strict reads raise on the first corrupt record).
    """
    snapshot_paths = sorted(cycle_dir.glob("snapshot-*.rwts"))
    if not snapshot_paths:
        raise FileNotFoundError(f"no snapshot-*.rwts under {cycle_dir}")
    pfx2as = cycle_dir.parent / "pfx2as.txt"
    if not pfx2as.exists():
        raise FileNotFoundError(f"missing {pfx2as}")
    with open(pfx2as, "r", encoding="utf-8") as stream:
        ip2as = Ip2AsMapper.load(stream)
    snapshots: List[List[Trace]] = []
    skipped: dict = {}
    for path in snapshot_paths:
        traces, skips = _read_snapshot(path, tolerant)
        for reason, count in skips.items():
            skipped[reason] = skipped.get(reason, 0) + count
        snapshots.append(traces)
    return ip2as, snapshots, skipped


def _read_snapshot(path: Path, tolerant: bool
                   ) -> Tuple[List[Trace], dict]:
    """One archive's traces and salvage tally (empty when strict).

    A corrupt archive raises :class:`WartsError` naming the file.
    """
    try:
        if tolerant:
            return salvage_archive(path)
        return read_archive(path), {}
    except WartsError as error:
        raise WartsError(f"{path}: {error}") from None


def _cycle_number(cycle_dir: Path) -> int:
    """The cycle a ``cycle-NN`` directory holds (0 when unparseable).

    ``simulate`` names directories after real cycle numbers; reports
    over a re-read cycle must carry that number, not a hardcoded 0.
    """
    name = cycle_dir.name
    prefix, _, suffix = name.partition("-")
    if prefix == "cycle" and suffix.isdigit():
        return int(suffix)
    return 0


def cmd_audit(args) -> int:
    if args.limit is not None and args.limit < 0:
        print(f"--limit must be >= 0, got {args.limit}", file=sys.stderr)
        return 2
    try:
        ip2as, snapshots, _ = _load_cycle(args.cycle_dir)
    except (FileNotFoundError, WartsError) as error:
        return _archive_failure(error, None)
    pipeline = LprPipeline(ip2as)
    result = pipeline.process_snapshots(
        _cycle_number(args.cycle_dir), snapshots)
    print(render_report(result, limit=args.limit))
    return 0


def cmd_study(args) -> int:
    timed = (args.profile or args.progress
             or args.trace_out is not None
             or args.serve_telemetry is not None
             or args.stall_timeout is not None)
    if timed:
        # Opt into real timing: swap the NullClock tracer for a
        # monotonic one (results stay deterministic — only the span
        # durations read the clock, never the pipeline).
        set_tracer(Tracer(MonotonicClock()))
    if args.cycles < 1:
        print(f"--cycles must be >= 1, got {args.cycles}",
              file=sys.stderr)
        return 2
    if _scale_error(args.scale):
        return 2
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print(f"--max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 2
    if args.backoff_base < 0:
        print(f"--backoff-base must be >= 0, got {args.backoff_base}",
              file=sys.stderr)
        return 2
    if args.snapshot_stride < 1:
        print(f"--snapshot-stride must be >= 1, "
              f"got {args.snapshot_stride}", file=sys.stderr)
        return 2
    if args.stall_timeout is not None and args.stall_timeout <= 0:
        print(f"--stall-timeout must be > 0, got {args.stall_timeout}",
              file=sys.stderr)
        return 2
    endpoint = None
    if args.serve_telemetry is not None:
        try:
            endpoint = parse_endpoint(args.serve_telemetry)
        except ValueError as error:
            print(f"--serve-telemetry: {error}", file=sys.stderr)
            return 2
    bus = None
    previous_bus = get_event_bus()
    if args.events_out is not None:
        # The events file gets wall timestamps only when the run
        # already opted into timing; a bare --events-out stays on the
        # NullClock and the file is deterministic (DESIGN §6).
        bus = set_event_bus(EventBus(
            clock=MonotonicClock() if timed else None,
            sink=args.events_out))
    # Every live consumer is a subscriber of the (possibly new) bus.
    subscriptions = []
    printer = server = tracker = None
    if args.progress or endpoint is not None:
        tracker = ProgressTracker(clock=MonotonicClock())
        printer = ProgressPrinter() if args.progress else None

        def on_progress(event):
            if tracker.on_event(event) and printer is not None:
                printer.update(tracker)

        subscriptions.append(get_event_bus().subscribe(on_progress))
    if endpoint is not None:
        health = HealthMonitor(stall_timeout=args.stall_timeout,
                               clock=MonotonicClock())
        subscriptions.append(get_event_bus().subscribe(health.on_event))
        server = TelemetryServer(*endpoint, registry=get_registry(),
                                 health=health)
        server.set_tracker(tracker)
        server.start()
        print(f"telemetry: listening on {server.url}",
              file=sys.stderr, flush=True)
    try:
        study = run_longitudinal_study(
            scale=args.scale, seed=args.seed,
            cycles=args.cycles,
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            state_dir=args.state_dir,
            snapshot_stride=args.snapshot_stride,
            max_retries=args.max_retries,
            backoff_base=args.backoff_base,
            resources=server is not None,
            stall_timeout=args.stall_timeout)
    finally:
        for unsubscribe in subscriptions:
            unsubscribe()
        if printer is not None:
            printer.finish()
        if server is not None:
            server.stop()
        if bus is not None:
            bus.close()
            set_event_bus(previous_bus)
    for artifact in args.artifacts:
        print(f"\n{regenerate(study, artifact)}")
    if args.profile:
        print(f"\n{_profile_table(get_tracer())}")
    if args.trace_out is not None:
        write_chrome_trace(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    try:
        if args.format == "json":
            data = flight_report_data(args.events,
                                      trace_path=args.trace,
                                      top=args.top)
            print(json.dumps(data, indent=2, sort_keys=True))
        else:
            print(flight_report(args.events, trace_path=args.trace,
                                top=args.top))
    except (OSError, ValueError) as error:
        print(f"cannot build report: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.cycles < 1:
        print(f"--cycles must be >= 1, got {args.cycles}",
              file=sys.stderr)
        return 2
    if _scale_error(args.scale):
        return 2
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.snapshots_per_cycle < 1:
        print(f"--snapshots-per-cycle must be >= 1, "
              f"got {args.snapshots_per_cycle}", file=sys.stderr)
        return 2
    bus = None
    previous_bus = get_event_bus()
    if args.events_out is not None:
        bus = set_event_bus(EventBus(sink=args.events_out))
    spec = StudySpec(scale=args.scale, seed=args.seed,
                     cycles=args.cycles,
                     snapshots_per_cycle=args.snapshots_per_cycle)
    configs = None
    if args.configs is not None:
        matrix = {config.name: config
                  for config in default_matrix(workers=args.workers)}
        configs = [matrix[name] for name in args.configs]
    try:
        if args.workdir is not None:
            report = run_matrix(spec, configs, workdir=args.workdir,
                                shrink=not args.no_shrink,
                                workers=args.workers)
        else:
            with tempfile.TemporaryDirectory(
                    prefix="repro-verify-") as scratch:
                report = run_matrix(spec, configs,
                                    workdir=Path(scratch),
                                    shrink=not args.no_shrink,
                                    workers=args.workers)
    finally:
        if bus is not None:
            bus.close()
            set_event_bus(previous_bus)
    print(report.render())
    return 0 if report.clean else 1


def _profile_table(tracer: Tracer) -> str:
    """Per-stage span breakdown of everything the tracer recorded.

    Worker time ran concurrently with the parent, so it has its own
    column and never counts against a parent span's self time.
    """
    rows = [
        [totals.name, totals.count, f"{totals.parent_s:.3f}",
         f"{totals.worker_s:.3f}", f"{totals.self_s:.3f}",
         f"{totals.mean_ms:.2f}"]
        for totals in tracer.totals()
    ]
    return format_table(["span", "calls", "parent s", "worker s",
                         "self s", "mean ms"], rows)


_COMMANDS = {
    "simulate": cmd_simulate,
    "show": cmd_show,
    "classify": cmd_classify,
    "audit": cmd_audit,
    "study": cmd_study,
    "report": cmd_report,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_output=args.log_json)
    code = _COMMANDS[args.command](args)
    if args.metrics_out is not None:
        try:
            write_metrics_json(args.metrics_out,
                               registry=get_registry(),
                               trace=get_tracer())
            emit("metrics.written", path=str(args.metrics_out))
        except OSError as error:
            print(f"cannot write metrics: {error}", file=sys.stderr)
            code = code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
