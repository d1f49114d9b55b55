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

Everything here is a pure function of the artifact contents — the
report renders identically wherever and whenever it is run.  Two
output forms share the same section builders: :func:`flight_report`
(the printable text) and :func:`flight_report_data` (one JSON object
with the same sections, ``repro report --format json``) — the latter
is what external dashboards compose with the live ``/metrics`` and
``/progress`` endpoints.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs.events import Event, read_events
from .render import format_table, sparkline


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list of one Chrome trace JSON file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"{path}: not a Chrome trace-event file")
    return payload["traceEvents"]


def _by_kind(events: Sequence[Event]) -> Dict[str, List[Event]]:
    grouped: Dict[str, List[Event]] = {}
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


def _restored_cycles(grouped: Dict[str, List[Event]]) -> int:
    """Cycles restored from checkpoints, counted alike for serial and
    parallel runs: one ``checkpoint.hit`` per restored cycle."""
    return len(grouped.get("checkpoint.hit", []))


def _summary_section(grouped: Dict[str, List[Event]]) -> List[str]:
    lines = ["== study =="]
    start = grouped.get("study.start")
    done = grouped.get("study.done")
    plan = grouped.get("study.plan")
    if start:
        fields = start[0].fields
        lines.append(f"cycles: {fields.get('cycles', '?')}  "
                     f"workers: {fields.get('workers', '?')}")
    if plan:
        lines.append(f"planned shards: {plan[0].fields.get('shards')}")
    restored = _restored_cycles(grouped)
    if restored:
        lines.append(f"restored from checkpoint: {restored}")
    for label, kind in _SUMMARY_COUNTS.items():
        if grouped.get(kind):
            lines.append(f"{label}: {len(grouped[kind])}")
    if done:
        lines.append(f"completed: {done[-1].fields.get('cycles')} "
                     f"cycle results")
    elif start:
        lines.append("completed: NO (no study.done event — the run "
                     "died or the file is truncated)")
    return lines


def _summary_data(grouped: Dict[str, List[Event]]) -> Dict[str, Any]:
    data: Dict[str, Any] = {}
    start = grouped.get("study.start")
    done = grouped.get("study.done")
    plan = grouped.get("study.plan")
    if start:
        data["cycles"] = start[0].fields.get("cycles")
        data["workers"] = start[0].fields.get("workers")
    if plan:
        data["planned_shards"] = plan[0].fields.get("shards")
    restored = _restored_cycles(grouped)
    if restored:
        data["restored_from_checkpoint"] = restored
    for label, kind in _SUMMARY_COUNTS.items():
        if grouped.get(kind):
            data[label.replace(" ", "_")] = len(grouped[kind])
    data["completed"] = bool(done)
    if done:
        data["completed_cycles"] = done[-1].fields.get("cycles")
    return data


# -- shard timeline ----------------------------------------------------------

def _shard_cells(grouped: Dict[str, List[Event]]
                 ) -> Dict[int, Dict[str, Any]]:
    """Fold the shard lifecycle events into one cell per shard id."""
    shards: Dict[int, Dict[str, Any]] = {}

    def cell(shard_id: int) -> Dict[str, Any]:
        return shards.setdefault(shard_id, {
            "work": "", "status": "pending", "attempts": 0,
            "traces": "", "note": ""})

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
        entry["traces"] = event.fields.get("traces", "")
    for event in grouped.get("shard.failed", []):
        entry = cell(event.fields["shard"])
        entry["status"] = "FAILED"
        entry["note"] = event.fields.get("error", "")[:40]
    return shards


def _shard_timeline(grouped: Dict[str, List[Event]]) -> List[str]:
    """One row per shard the runner ever touched, in shard-id order."""
    shards = _shard_cells(grouped)
    if not shards:
        return []
    rows = [
        [shard_id, entry["work"], entry["status"],
         entry["attempts"] or "", entry["traces"], entry["note"]]
        for shard_id, entry in sorted(shards.items())
    ]
    return ["== shard timeline ==",
            format_table(["shard", "work", "status", "attempts",
                          "traces", "note"], rows)]


def _shard_rows(grouped: Dict[str, List[Event]]) -> List[Dict[str, Any]]:
    return [
        {"shard": shard_id, "work": entry["work"],
         "status": entry["status"], "attempts": entry["attempts"],
         "traces": entry["traces"] if entry["traces"] != "" else None,
         "note": entry["note"]}
        for shard_id, entry in sorted(_shard_cells(grouped).items())
    ]


def _work_label(fields: Dict[str, Any]) -> str:
    first, last = fields.get("first"), fields.get("last")
    if first == last:
        return f"cycle {first}"
    return f"cycles {first}-{last}"


# -- caches ------------------------------------------------------------------

def _hit_rate_line(label: str, hits: float, misses: float) -> str:
    """One cache family's line; a partial events file may have seen
    only hits or only misses, so the rate is guarded, never assumed."""
    total = hits + misses
    rate = f"  hit rate: {hits / total:.1%}" if total else ""
    return f"{label}: hits {hits:.0f}  misses {misses:.0f}{rate}"


def _cache_totals(grouped: Dict[str, List[Event]]) -> Dict[str, float]:
    """Raw cache totals the section renderers share."""
    hits = misses = 0
    for event in grouped.get("shard.done", []):
        hits += event.fields.get("cache_hits", 0)
        misses += event.fields.get("cache_misses", 0)
    for event in grouped.get("cache.flush", []):
        hits += event.fields.get("hits", 0)
        misses += event.fields.get("misses", 0)

    metric_rows = [event.fields.get("metrics", {})
                   for event in grouped.get("cycle.metrics", [])]

    def metric(name: str, **labels: Any) -> float:
        return sum(_cycle_metric(metrics, name, **labels)
                   for metrics in metric_rows)

    return {
        "hits": hits,
        "misses": misses,
        "ip2as_hits": metric("ip2as_lookup_cache_hits_total"),
        "ip2as_misses": metric("ip2as_lookup_cache_misses_total"),
    }


def _cache_section(grouped: Dict[str, List[Event]]) -> List[str]:
    """Per-family cache telemetry: the forwarding-path caches (summed
    over ``shard.done`` / ``cache.flush`` events) and the IP2AS block
    memo (from ``cycle.metrics`` registry deltas).  Families absent
    from the events file are simply omitted — a partial or serial-only
    file must never divide by zero."""
    totals = _cache_totals(grouped)
    lines = []
    if totals["hits"] + totals["misses"]:
        lines.append(_hit_rate_line("forwarding", totals["hits"],
                                    totals["misses"]))
    if totals["ip2as_hits"] + totals["ip2as_misses"]:
        lines.append(_hit_rate_line("ip2as memo", totals["ip2as_hits"],
                                    totals["ip2as_misses"]))
    if not lines:
        return []
    return ["== forwarding-path caches =="] + lines


def _cache_data(grouped: Dict[str, List[Event]]) -> Dict[str, Any]:
    totals = _cache_totals(grouped)
    data: Dict[str, Any] = {}
    if totals["hits"] + totals["misses"]:
        data["forwarding"] = {"hits": totals["hits"],
                              "misses": totals["misses"]}
    if totals["ip2as_hits"] + totals["ip2as_misses"]:
        data["ip2as_memo"] = {"hits": totals["ip2as_hits"],
                              "misses": totals["ip2as_misses"]}
    return data


# -- warm-start state snapshots ----------------------------------------------

def _snapshot_totals(grouped: Dict[str, List[Event]]
                     ) -> Optional[Dict[str, Any]]:
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


def _snapshot_section(grouped: Dict[str, List[Event]]) -> List[str]:
    """Warm-start state-store activity (:mod:`repro.par.statestore`).

    ``snapshot.hit`` events carry how many replay cycles each restore
    saved; misses mean a cold replay followed, rejects mean a file was
    unusable (corrupt, foreign spec or version) and the search fell
    back to an older snapshot.
    """
    totals = _snapshot_totals(grouped)
    if totals is None:
        return []
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


def _resource_rows(grouped: Dict[str, List[Event]]
                   ) -> List[Dict[str, Any]]:
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


def _resource_section(grouped: Dict[str, List[Event]]) -> List[str]:
    rows = _resource_rows(grouped)
    if not rows:
        return []
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

def _stall_rows(grouped: Dict[str, List[Event]]) -> List[Dict[str, Any]]:
    stalled = grouped.get("shard.stalled", [])
    if not stalled:
        return []
    recovered = {event.fields.get("shard")
                 for event in grouped.get("shard.recovered", [])}
    return [
        {"shard": event.fields.get("shard"),
         "timeout_s": event.fields.get("timeout"),
         "recovered": event.fields.get("shard") in recovered}
        for event in stalled
    ]


def _stall_section(grouped: Dict[str, List[Event]]) -> List[str]:
    rows = _stall_rows(grouped)
    if not rows:
        return []
    lines = ["== stalls =="]
    for row in rows:
        fate = "recovered" if row["recovered"] else "NOT recovered"
        lines.append(f"shard {row['shard']}: heartbeats silent past "
                     f"the {row['timeout_s']}s deadline ({fate})")
    return lines


# -- filters -----------------------------------------------------------------

_FILTERS = ("incomplete", "intra_as", "target_as",
            "transit_diversity", "persistence")


def _cycle_metric(metrics: Dict[str, Any], name: str,
                  **labels: Any) -> float:
    total = 0.0
    for entry in metrics.get(name, {}).get("values", []):
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            total += entry["value"]
    return total


def _filter_series(grouped: Dict[str, List[Event]]
                   ) -> Optional[Dict[str, Any]]:
    cycles = sorted(grouped.get("cycle.metrics", []),
                    key=lambda e: e.fields.get("cycle", 0))
    if not cycles:
        return None
    return {
        "cycles": [e.fields.get("cycle") for e in cycles],
        "extracted": [_cycle_metric(e.fields.get("metrics", {}),
                                    "lsps_extracted_total")
                      for e in cycles],
        "dropped": {
            name: [_cycle_metric(e.fields.get("metrics", {}),
                                 "lsps_dropped_total", filter=name)
                   for e in cycles]
            for name in _FILTERS
        },
    }


def _filter_section(grouped: Dict[str, List[Event]]) -> List[str]:
    """Per-filter drop counts across cycles, as sparkline trajectories.

    ``cycle.metrics`` events carry each cycle's registry delta; the
    ``lsps_dropped_total{filter=...}`` series inside reconstruct the
    funnel the paper's Table 1 footnotes describe.
    """
    series = _filter_series(grouped)
    if series is None:
        return []
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

def _verify_section(grouped: Dict[str, List[Event]]) -> List[str]:
    """Differential-oracle activity (:mod:`repro.verify`).

    A ``repro verify`` run leaves one ``verify.config`` event per
    configuration executed, a ``verify.divergence`` /
    ``verify.violation`` per finding, and — when the shrinker ran — a
    ``verify.minimal`` carrying the standalone repro command.
    """
    configs = grouped.get("verify.config", [])
    violations = grouped.get("verify.violation", [])
    divergences = grouped.get("verify.divergence", [])
    minimal = grouped.get("verify.minimal", [])
    shrink_steps = grouped.get("verify.shrink.step", [])
    if not (configs or violations or divergences):
        return []
    lines = ["== differential verification =="]
    if configs:
        rows = [[event.fields.get("config", "?"),
                 event.fields.get("cycles", ""),
                 event.fields.get("status", "?")]
                for event in configs]
        lines.append(format_table(["config", "cycles", "status"],
                                  rows))
    for event in violations:
        where = (f" (cycle {event.fields['cycle']})"
                 if "cycle" in event.fields else "")
        lines.append(f"invariant violation{where}: "
                     f"[{event.fields.get('checker', '?')}] "
                     f"{event.fields.get('message', '')}")
    for event in divergences:
        where = (f"cycle {event.fields['cycle']}, "
                 if "cycle" in event.fields else "")
        lines.append(f"divergence: {event.fields.get('config', '?')} "
                     f"at {where}stage "
                     f"{event.fields.get('stage', '?')}")
    for event in minimal:
        lines.append(f"minimal repro "
                     f"({event.fields.get('trials', '?')} shrink "
                     f"trials, {len(shrink_steps)} steps recorded): "
                     f"{event.fields.get('command', '?')}")
    return lines


def _verify_data(grouped: Dict[str, List[Event]]) -> Dict[str, Any]:
    configs = grouped.get("verify.config", [])
    violations = grouped.get("verify.violation", [])
    divergences = grouped.get("verify.divergence", [])
    minimal = grouped.get("verify.minimal", [])
    if not (configs or violations or divergences):
        return {}
    return {
        "configs": [dict(event.fields) for event in configs],
        "violations": [dict(event.fields) for event in violations],
        "divergences": [dict(event.fields) for event in divergences],
        "minimal": [dict(event.fields) for event in minimal],
    }


# -- trace-derived sections --------------------------------------------------

def _stage_rows(trace_events: Sequence[Dict[str, Any]]
                ) -> List[Dict[str, Any]]:
    stages: Dict[Any, Dict[str, float]] = {}
    order: List[Any] = []
    for event in trace_events:
        if event.get("ph") != "X":
            continue
        side = "parent" if event.get("tid", 0) == 0 else "worker"
        key = (event["name"], side)
        if key not in stages:
            stages[key] = {"calls": 0, "total_us": 0.0}
            order.append(key)
        stages[key]["calls"] += 1
        stages[key]["total_us"] += event.get("dur", 0.0)
    return [
        {"span": name, "side": side,
         "calls": int(stages[(name, side)]["calls"]),
         "total_s": round(stages[(name, side)]["total_us"] / 1e6, 6)}
        for name, side in order
    ]


def _stage_section(trace_events: Sequence[Dict[str, Any]]) -> List[str]:
    """Per-stage totals from the Chrome trace, parent vs workers.

    Track 0 is the parent process; grafted worker subtrees live on
    ``shard + 1`` (:func:`repro.obs.export.to_chrome_trace`), so the
    split shows where a sharded study really spent its time.
    """
    rows = _stage_rows(trace_events)
    if not rows:
        return []
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


def _slowest_cycles(trace_events: Sequence[Dict[str, Any]],
                    top: int = 5) -> List[str]:
    """Top-N ``pipeline.cycle`` spans by duration, wherever they ran."""
    total = sum(1 for event in trace_events
                if event.get("ph") == "X"
                and event["name"] == "pipeline.cycle"
                and event.get("args", {}).get("cycle") is not None)
    rows = _slowest_rows(trace_events, top=top)
    if not rows:
        return []
    table_rows = [[row["cycle"], f"{row['seconds']:.3f}", row["side"]]
                  for row in rows]
    return [f"== slowest cycles (top {min(top, total)}) ==",
            format_table(["cycle", "seconds", "side"], table_rows)]


# -- entry points ------------------------------------------------------------

def flight_report(events_path: Union[str, Path],
                  trace_path: Optional[Union[str, Path]] = None,
                  top: int = 5) -> str:
    """The full post-hoc report as one printable string."""
    grouped = _by_kind(read_events(events_path))
    sections = [
        _summary_section(grouped),
        _shard_timeline(grouped),
        _cache_section(grouped),
        _snapshot_section(grouped),
        _resource_section(grouped),
        _stall_section(grouped),
        _filter_section(grouped),
        _verify_section(grouped),
    ]
    if trace_path is not None:
        trace_events = load_trace(trace_path)
        sections.append(_stage_section(trace_events))
        sections.append(_slowest_cycles(trace_events, top=top))
    return "\n\n".join("\n".join(section)
                       for section in sections if section)


def flight_report_data(events_path: Union[str, Path],
                       trace_path: Optional[Union[str, Path]] = None,
                       top: int = 5) -> Dict[str, Any]:
    """The same report as one JSON-ready object.

    Sections mirror the text report and are omitted when empty, except
    ``study`` which is always present.  ``repro report --format json``
    prints this, for dashboards and scripts.
    """
    grouped = _by_kind(read_events(events_path))
    data: Dict[str, Any] = {"study": _summary_data(grouped)}
    optional: List[tuple] = [
        ("shards", _shard_rows(grouped)),
        ("caches", _cache_data(grouped)),
        ("state_snapshots", _snapshot_totals(grouped)),
        ("resources", _resource_rows(grouped)),
        ("stalls", _stall_rows(grouped)),
        ("filters", _filter_series(grouped)),
        ("verify", _verify_data(grouped)),
    ]
    if trace_path is not None:
        trace_events = load_trace(trace_path)
        optional.append(("stages", _stage_rows(trace_events)))
        optional.append(("slowest_cycles",
                         _slowest_rows(trace_events, top=top)))
    for key, value in optional:
        if value:
            data[key] = value
    return data
