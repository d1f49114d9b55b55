"""Post-hoc study reports from flight-recorder artifacts.

``repro report`` reconstructs what a (possibly long-gone) study run did
from the files the flight recorder left behind:

* the **events file** (``--events-out``, :mod:`repro.obs.events`
  JSONL) drives the run summary, the shard timeline (dispatches,
  retries, subdivisions, failures), the cache hit rates, the
  per-cycle filter-drop trajectories, and — when the run served live
  telemetry — the per-process resource usage and stall sections;
* the optional **trace file** (``--trace-out``, Chrome trace-event
  JSON) adds wall-time: a per-stage table split into parent and worker
  tracks, and the top-N slowest cycles.

Pool workers forward their events to the parent's bus, so a serial
and a sharded run's files hold the same facts and every section reads
them one way.  Everything here is a pure function of the artifact
contents — the report renders identically wherever and whenever it is
run.  Each section is built once, as data, by one builder; the text
form (:func:`flight_report`) renders that data and the JSON form
(:func:`flight_report_data`, ``repro report --format json``) returns
it — the latter is what external dashboards compose with the live
``/metrics`` and ``/progress`` endpoints.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.events import Event, read_events
from ..obs.metrics import delta_total
from .render import format_table, sparkline

Grouped = Dict[str, List[Event]]


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list of one Chrome trace JSON file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"{path}: not a Chrome trace-event file")
    return payload["traceEvents"]


def _by_kind(events: Sequence[Event]) -> Grouped:
    grouped: Grouped = {}
    for event in events:
        grouped.setdefault(event.kind, []).append(event)
    return grouped


# -- study summary -----------------------------------------------------------

_SUMMARY_COUNTS = {
    "retries": "shard.retry",
    "subdivisions": "shard.subdivided",
    "checkpoint writes": "checkpoint.write",
    "checkpoint rejects": "checkpoint.rejected",
}


def _summary(grouped: Grouped) -> Dict[str, Any]:
    """Run shape and outcome.  Restored cycles are counted alike for
    serial and parallel runs: one ``checkpoint.hit`` per cycle."""
    data: Dict[str, Any] = {}
    start = grouped.get("study.start")
    done = grouped.get("study.done")
    plan = grouped.get("study.plan")
    if start:
        data["cycles"] = start[0].fields.get("cycles")
        data["workers"] = start[0].fields.get("workers")
    if plan:
        data["planned_shards"] = plan[0].fields.get("shards")
    restored = len(grouped.get("checkpoint.hit", []))
    if restored:
        data["restored_from_checkpoint"] = restored
    for label, kind in _SUMMARY_COUNTS.items():
        if grouped.get(kind):
            data[label.replace(" ", "_")] = len(grouped[kind])
    data["completed"] = bool(done)
    if done:
        data["completed_cycles"] = done[-1].fields.get("cycles")
    return data


def _summary_lines(data: Dict[str, Any]) -> List[str]:
    lines = ["== study =="]
    if "cycles" in data:
        cycles, workers = data["cycles"], data["workers"]
        lines.append(f"cycles: {'?' if cycles is None else cycles}  "
                     f"workers: {'?' if workers is None else workers}")
    if "planned_shards" in data:
        lines.append(f"planned shards: {data['planned_shards']}")
    if "restored_from_checkpoint" in data:
        lines.append(f"restored from checkpoint: "
                     f"{data['restored_from_checkpoint']}")
    for label in _SUMMARY_COUNTS:
        key = label.replace(" ", "_")
        if key in data:
            lines.append(f"{label}: {data[key]}")
    if data["completed"]:
        lines.append(f"completed: {data['completed_cycles']} "
                     f"cycle results")
    elif "cycles" in data:
        lines.append("completed: NO (no study.done event — the run "
                     "died or the file is truncated)")
    return lines


# -- shard timeline ----------------------------------------------------------

def _shard_rows(grouped: Grouped) -> List[Dict[str, Any]]:
    """Fold the shard lifecycle events into one row per shard the
    runner ever touched, in shard-id order."""
    shards: Dict[int, Dict[str, Any]] = {}

    def cell(shard_id: int) -> Dict[str, Any]:
        return shards.setdefault(shard_id, {
            "shard": shard_id, "work": "", "status": "pending",
            "attempts": 0, "traces": None, "note": ""})

    for event in grouped.get("shard.dispatch", []):
        entry = cell(event.fields["shard"])
        entry["work"] = _work_label(event.fields)
        entry["attempts"] = max(entry["attempts"],
                                event.fields.get("attempt", 1))
        if entry["status"] == "pending":
            entry["status"] = "dispatched"
    for event in grouped.get("shard.retry", []):
        entry = cell(event.fields["shard"])
        entry["attempts"] = max(entry["attempts"],
                                event.fields.get("attempt", 0))
        if entry["status"] != "done":
            entry["status"] = "retrying"
        entry["note"] = event.fields.get("error", "")[:40]
    for event in grouped.get("shard.subdivided", []):
        entry = cell(event.fields["parent"])
        entry["status"] = "subdivided"
        children = event.fields.get("children", [])
        entry["note"] = "-> " + ",".join(str(c) for c in children)
    for event in grouped.get("shard.done", []):
        entry = cell(event.fields["shard"])
        entry["status"] = "done"
        entry["traces"] = event.fields.get("traces")
    for event in grouped.get("shard.failed", []):
        entry = cell(event.fields["shard"])
        entry["status"] = "FAILED"
        entry["note"] = event.fields.get("error", "")[:40]
    return [shards[shard_id] for shard_id in sorted(shards)]


def _shard_lines(rows: List[Dict[str, Any]]) -> List[str]:
    table_rows = [
        [row["shard"], row["work"], row["status"],
         row["attempts"] or "",
         "" if row["traces"] is None else row["traces"], row["note"]]
        for row in rows
    ]
    return ["== shard timeline ==",
            format_table(["shard", "work", "status", "attempts",
                          "traces", "note"], table_rows)]


def _work_label(fields: Dict[str, Any]) -> str:
    first, last = fields.get("first"), fields.get("last")
    if first == last:
        return f"cycle {first}"
    return f"cycles {first}-{last}"


# -- caches ------------------------------------------------------------------

def _cache_data(grouped: Grouped) -> Dict[str, Any]:
    """Per-family cache totals: the forwarding-path caches summed over
    ``cache.flush`` events, the IP2AS block memo over ``cycle.done``
    events — each emitted by whichever process did the work, so a
    cycle restored from a checkpoint adds nothing.  Families absent
    from the events file are omitted, so nothing divides by zero."""
    flushes = grouped.get("cache.flush", [])
    cycles = grouped.get("cycle.done", [])
    families = {
        "forwarding": (
            sum(event.fields.get("hits", 0) for event in flushes),
            sum(event.fields.get("misses", 0) for event in flushes)),
        "ip2as_memo": (
            sum(event.fields.get("ip2as_memo_hits", 0)
                for event in cycles),
            sum(event.fields.get("ip2as_memo_misses", 0)
                for event in cycles)),
    }
    return {family: {"hits": hits, "misses": misses}
            for family, (hits, misses) in families.items()
            if hits + misses}


def _cache_lines(data: Dict[str, Any]) -> List[str]:
    lines = ["== forwarding-path caches =="]
    for family, totals in data.items():
        hits, misses = totals["hits"], totals["misses"]
        rate = f"  hit rate: {hits / (hits + misses):.1%}"
        lines.append(f"{family.replace('_', ' ')}: hits {hits:.0f}  "
                     f"misses {misses:.0f}{rate}")
    return lines


# -- warm-start state snapshots ----------------------------------------------

def _snapshot_totals(grouped: Grouped) -> Optional[Dict[str, Any]]:
    """Warm-start state-store activity (:mod:`repro.par.statestore`).

    ``snapshot.hit`` events carry how many replay cycles each restore
    saved; misses mean a cold replay followed, rejects mean a file was
    unusable (corrupt, foreign spec or version) and the search fell
    back to an older snapshot.
    """
    hits = grouped.get("snapshot.hit", [])
    misses = grouped.get("snapshot.miss", [])
    writes = grouped.get("snapshot.write", [])
    rejected = grouped.get("snapshot.rejected", [])
    if not (hits or misses or writes or rejected):
        return None
    reasons: Dict[str, int] = {}
    for event in rejected:
        reason = event.fields.get("reason", "?")
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "restores": len(hits),
        "cold_replays": len(misses),
        "writes": len(writes),
        "rejected": len(rejected),
        "replay_cycles_saved": sum(event.fields.get("saved", 0)
                                   for event in hits),
        "rejects_by_reason": reasons,
    }


def _snapshot_lines(totals: Dict[str, Any]) -> List[str]:
    lines = ["== warm-start state snapshots ==",
             f"restores: {totals['restores']}  "
             f"cold replays: {totals['cold_replays']}  "
             f"writes: {totals['writes']}  "
             f"rejected: {totals['rejected']}"]
    if totals["restores"]:
        lines.append(f"replay cycles saved: "
                     f"{totals['replay_cycles_saved']:.0f}")
    if totals["rejected"]:
        lines.append("rejects by reason: " + "  ".join(
            f"{reason}: {count}"
            for reason, count in
            sorted(totals["rejects_by_reason"].items())))
    return lines


# -- resource usage (live telemetry plane) -----------------------------------

def _shard_sort_key(shard: str) -> Any:
    """Numeric shards first in order, then named ones ("parent")."""
    return (0, int(shard)) if shard.isdigit() else (1, shard)


def _resource_rows(grouped: Grouped) -> List[Dict[str, Any]]:
    """Per-process aggregation of ``worker.resources`` samples.

    RSS aggregates to peak and median; CPU times are cumulative so the
    per-process value is the max seen.  CPU efficiency — CPU seconds
    burned per wall second between a process's first and last sample —
    needs event timestamps, so it is None for untimed runs.
    """
    cells: Dict[str, Dict[str, Any]] = {}
    for event in grouped.get("worker.resources", []):
        shard = str(event.fields.get("shard", "?"))
        cell = cells.setdefault(shard, {
            "samples": 0, "rss": [], "cpu_user": 0.0, "cpu_sys": 0.0,
            "cpu_first": None, "ts_first": None, "ts_last": None})
        cell["samples"] += 1
        rss = event.fields.get("rss_bytes")
        if rss is not None:
            cell["rss"].append(rss)
        user = event.fields.get("cpu_user_s", 0.0)
        system = event.fields.get("cpu_sys_s", 0.0)
        cell["cpu_user"] = max(cell["cpu_user"], user)
        cell["cpu_sys"] = max(cell["cpu_sys"], system)
        if cell["cpu_first"] is None:
            cell["cpu_first"] = user + system
        if event.ts is not None:
            if cell["ts_first"] is None:
                cell["ts_first"] = event.ts
            cell["ts_last"] = event.ts
    rows = []
    for shard in sorted(cells, key=_shard_sort_key):
        cell = cells[shard]
        efficiency = None
        if cell["ts_first"] is not None:
            span = cell["ts_last"] - cell["ts_first"]
            if span > 0:
                burned = max(0.0, cell["cpu_user"] + cell["cpu_sys"]
                             - cell["cpu_first"])
                efficiency = round(burned / span, 3)
        rows.append({
            "shard": shard,
            "samples": cell["samples"],
            "peak_rss_bytes": max(cell["rss"], default=0),
            "median_rss_bytes": (statistics.median(cell["rss"])
                                 if cell["rss"] else 0),
            "cpu_user_s": round(cell["cpu_user"], 3),
            "cpu_sys_s": round(cell["cpu_sys"], 3),
            "cpu_efficiency": efficiency,
        })
    return rows


def _format_bytes(count: float) -> str:
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            if unit == "B":
                return f"{count:.0f} {unit}"
            return f"{count:.1f} {unit}"
        count /= 1024.0
    raise AssertionError("unreachable")


def _resource_lines(rows: List[Dict[str, Any]]) -> List[str]:
    table_rows = [
        [row["shard"], row["samples"],
         _format_bytes(row["peak_rss_bytes"]),
         _format_bytes(row["median_rss_bytes"]),
         f"{row['cpu_user_s']:.2f}", f"{row['cpu_sys_s']:.2f}",
         (f"{row['cpu_efficiency']:.0%}"
          if row["cpu_efficiency"] is not None else "")]
        for row in rows
    ]
    return ["== resource usage ==",
            format_table(["shard", "samples", "peak rss", "median rss",
                          "cpu user s", "cpu sys s", "cpu eff"],
                         table_rows)]


# -- stalls ------------------------------------------------------------------

def _stall_rows(grouped: Grouped) -> List[Dict[str, Any]]:
    recovered = {event.fields.get("shard")
                 for event in grouped.get("shard.recovered", [])}
    return [
        {"shard": event.fields.get("shard"),
         "timeout_s": event.fields.get("timeout"),
         "recovered": event.fields.get("shard") in recovered}
        for event in grouped.get("shard.stalled", [])
    ]


def _stall_lines(rows: List[Dict[str, Any]]) -> List[str]:
    lines = ["== stalls =="]
    for row in rows:
        fate = "recovered" if row["recovered"] else "NOT recovered"
        lines.append(f"shard {row['shard']}: heartbeats silent past "
                     f"the {row['timeout_s']}s deadline ({fate})")
    return lines


# -- filters -----------------------------------------------------------------

_FILTERS = ("incomplete", "intra_as", "target_as",
            "transit_diversity", "persistence")


def _filter_series(grouped: Grouped) -> Optional[Dict[str, Any]]:
    """Per-filter drop counts across cycles.

    ``cycle.metrics`` events carry each cycle's result metrics; the
    ``lsps_dropped_total{filter=...}`` series inside reconstruct the
    funnel the paper's Table 1 footnotes describe.
    """
    cycles = sorted(grouped.get("cycle.metrics", []),
                    key=lambda e: e.fields.get("cycle", 0))
    if not cycles:
        return None
    return {
        "cycles": [e.fields.get("cycle") for e in cycles],
        "extracted": [delta_total(e.fields.get("metrics", {}),
                                  "lsps_extracted_total")
                      for e in cycles],
        "dropped": {
            name: [delta_total(e.fields.get("metrics", {}),
                               "lsps_dropped_total", filter=name)
                   for e in cycles]
            for name in _FILTERS
        },
    }


def _filter_lines(series: Dict[str, Any]) -> List[str]:
    """The drop counts as sparkline trajectories."""
    extracted = series["extracted"]
    lines = ["== filter drops per cycle =="]
    width = max(len(name) for name in ("extracted",) + _FILTERS)
    lines.append(f"{'extracted'.ljust(width)} "
                 f"{sparkline(extracted)} "
                 f"(total {sum(extracted):.0f})")
    for name in _FILTERS:
        values = series["dropped"][name]
        lines.append(f"{name.ljust(width)} {sparkline(values)} "
                     f"(total {sum(values):.0f})")
    return lines


# -- differential verification -----------------------------------------------

def _verify_data(grouped: Grouped) -> Dict[str, Any]:
    """Differential-oracle activity (:mod:`repro.verify`).

    A ``repro verify`` run leaves one ``verify.config`` event per
    configuration executed, a ``verify.divergence`` /
    ``verify.violation`` per finding, and — when the shrinker ran — a
    ``verify.minimal`` carrying the standalone repro command.
    """
    found = {key: [dict(event.fields)
                   for event in grouped.get(f"verify.{kind}", [])]
             for key, kind in (("configs", "config"),
                               ("violations", "violation"),
                               ("divergences", "divergence"),
                               ("minimal", "minimal"))}
    if not (found["configs"] or found["violations"]
            or found["divergences"]):
        return {}
    found["shrink_steps"] = len(grouped.get("verify.shrink.step", []))
    return found


def _verify_lines(data: Dict[str, Any]) -> List[str]:
    lines = ["== differential verification =="]
    if data["configs"]:
        rows = [[config.get("config", "?"), config.get("cycles", ""),
                 config.get("status", "?")]
                for config in data["configs"]]
        lines.append(format_table(["config", "cycles", "status"],
                                  rows))
    for fields in data["violations"]:
        where = ", ".join(f"{key} {fields[key]}"
                          for key in ("config", "cycle") if key in fields)
        where = f" ({where})" if where else ""
        lines.append(f"invariant violation{where}: "
                     f"[{fields.get('checker', '?')}] "
                     f"{fields.get('message', '')}")
    for fields in data["divergences"]:
        where = (f"cycle {fields['cycle']}, "
                 if "cycle" in fields else "")
        lines.append(f"divergence: {fields.get('config', '?')} "
                     f"at {where}stage {fields.get('stage', '?')}")
    for fields in data["minimal"]:
        lines.append(f"minimal repro "
                     f"({fields.get('trials', '?')} shrink trials, "
                     f"{data['shrink_steps']} steps recorded): "
                     f"{fields.get('command', '?')}")
    return lines


# -- trace-derived sections --------------------------------------------------

def _stage_rows(trace_events: Sequence[Dict[str, Any]]
                ) -> List[Dict[str, Any]]:
    """Per-stage totals from the Chrome trace, parent vs workers.

    Track 0 is the parent process; grafted worker subtrees live on
    ``shard + 1`` (:func:`repro.obs.export.to_chrome_trace`), so the
    split shows where a sharded study really spent its time.
    """
    stages: Dict[Any, Dict[str, float]] = {}
    for event in trace_events:
        if event.get("ph") != "X":
            continue
        side = "parent" if event.get("tid", 0) == 0 else "worker"
        stage = stages.setdefault((event["name"], side),
                                  {"calls": 0, "total_us": 0.0})
        stage["calls"] += 1
        stage["total_us"] += event.get("dur", 0.0)
    return [
        {"span": name, "side": side, "calls": int(stage["calls"]),
         "total_s": round(stage["total_us"] / 1e6, 6)}
        for (name, side), stage in stages.items()
    ]


def _stage_lines(rows: List[Dict[str, Any]]) -> List[str]:
    table_rows = [
        [row["span"], row["side"], row["calls"],
         f"{row['total_s']:.3f}"]
        for row in rows
    ]
    return ["== per-stage time (from trace) ==",
            format_table(["span", "side", "calls", "total s"],
                         table_rows)]


def _slowest_rows(trace_events: Sequence[Dict[str, Any]],
                  top: int = 5) -> List[Dict[str, Any]]:
    """Top-N ``pipeline.cycle`` spans by duration, wherever they ran."""
    cycles = [
        (event.get("args", {}).get("cycle"), event.get("dur", 0.0),
         "parent" if event.get("tid", 0) == 0 else "worker")
        for event in trace_events
        if event.get("ph") == "X" and event["name"] == "pipeline.cycle"
    ]
    cycles = [entry for entry in cycles if entry[0] is not None]
    cycles.sort(key=lambda entry: -entry[1])
    return [{"cycle": cycle, "seconds": round(dur / 1e6, 6),
             "side": side}
            for cycle, dur, side in cycles[:top]]


def _slowest_lines(rows: List[Dict[str, Any]]) -> List[str]:
    table_rows = [[row["cycle"], f"{row['seconds']:.3f}", row["side"]]
                  for row in rows]
    return [f"== slowest cycles (top {len(rows)}) ==",
            format_table(["cycle", "seconds", "side"], table_rows)]


# -- entry points ------------------------------------------------------------

Section = Tuple[str, Any, Callable[[Any], List[str]]]


def _sections(events_path: Union[str, Path],
              trace_path: Optional[Union[str, Path]],
              top: int) -> List[Section]:
    """``(json key, data, text renderer)`` for every section, in
    report order; a renderer only ever sees non-empty data."""
    grouped = _by_kind(read_events(events_path))
    sections: List[Section] = [
        ("study", _summary(grouped), _summary_lines),
        ("shards", _shard_rows(grouped), _shard_lines),
        ("caches", _cache_data(grouped), _cache_lines),
        ("state_snapshots", _snapshot_totals(grouped), _snapshot_lines),
        ("resources", _resource_rows(grouped), _resource_lines),
        ("stalls", _stall_rows(grouped), _stall_lines),
        ("filters", _filter_series(grouped), _filter_lines),
        ("verify", _verify_data(grouped), _verify_lines),
    ]
    if trace_path is not None:
        trace_events = load_trace(trace_path)
        sections.append(("stages", _stage_rows(trace_events),
                         _stage_lines))
        sections.append(("slowest_cycles",
                         _slowest_rows(trace_events, top=top),
                         _slowest_lines))
    return sections


def flight_report(events_path: Union[str, Path],
                  trace_path: Optional[Union[str, Path]] = None,
                  top: int = 5) -> str:
    """The full post-hoc report as one printable string."""
    return "\n\n".join(
        "\n".join(render(data))
        for _key, data, render in _sections(events_path, trace_path, top)
        if data)


def flight_report_data(events_path: Union[str, Path],
                       trace_path: Optional[Union[str, Path]] = None,
                       top: int = 5) -> Dict[str, Any]:
    """The same report as one JSON-ready object.

    Sections mirror the text report and are omitted when empty, except
    ``study`` which is always present.  ``repro report --format json``
    prints this, for dashboards and scripts.
    """
    return {key: data
            for key, data, _render in _sections(events_path, trace_path,
                                                top)
            if data or key == "study"}
