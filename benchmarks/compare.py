#!/usr/bin/env python
"""Benchmark regression gate against the committed trajectory.

The reference is ``BENCH_baseline.json`` overlaid with the most recent
per-PR results file (``BENCH_pr<N>.json``, highest N wins), so every
change is held to the best recently *committed* means — a regression
that slips past the original seed baseline but not last PR's numbers
still fails.  Benchmarks whose cost is machine-independent are gated
at :data:`REGRESSION_LIMIT`; the ``*_speedup`` benchmarks depend on
the runner's core count and are informational only.  A gated
benchmark missing from the fresh run fails too — a silently skipped
gate is a regression in itself.

Usage::

    python benchmarks/compare.py bench.json [repo-root]
"""

import json
import re
import sys
from pathlib import Path

GATED = {
    "test_bench_warts_read",
    "test_bench_extraction",
    "test_bench_filters",
    "test_bench_classification",
    "test_bench_full_pipeline",
    "test_bench_trace_all",
    "test_bench_fast_forward",
    "test_bench_warm_start",
}

REGRESSION_LIMIT = 1.25
"""A gated benchmark failing at > 25% over its reference mean fails CI."""


def load(path):
    """name -> benchmark record from one pytest-benchmark JSON file."""
    payload = json.loads(Path(path).read_text())
    return {record["name"]: record for record in payload["benchmarks"]}


def _pr_number(path: Path) -> int:
    match = re.search(r"(\d+)", path.stem)
    return int(match.group(1)) if match else -1


def reference(root: Path):
    """The baseline overlaid with the newest committed per-PR results."""
    merged = load(root / "BENCH_baseline.json")
    trajectory = sorted(root.glob("BENCH_pr*.json"), key=_pr_number)
    for path in trajectory:
        merged.update(load(path))
    names = ["BENCH_baseline.json"] + [path.name for path in trajectory]
    print("reference:", " + ".join(names))
    return merged


def main(argv):
    bench_path = argv[1] if len(argv) > 1 else "bench.json"
    root = (Path(argv[2]) if len(argv) > 2
            else Path(__file__).resolve().parent.parent)
    fresh = load(bench_path)
    committed = reference(root)

    failures = []
    for name in sorted(set(fresh) & set(committed)):
        ratio = (fresh[name]["stats"]["mean"]
                 / committed[name]["stats"]["mean"])
        gated = name in GATED
        print(f"{name}: {ratio:.2f}x of reference "
              f"({'gated' if gated else 'informational'}, "
              f"extra: {fresh[name].get('extra_info', {})})")
        if gated and ratio > REGRESSION_LIMIT:
            failures.append(f"{name} ({ratio:.2f}x > {REGRESSION_LIMIT}x)")

    missing = GATED - set(fresh)
    if missing:
        failures.append(f"missing gated benchmarks: {sorted(missing)}")

    if failures:
        return "benchmark regression: " + "; ".join(failures)
    print("all gated benchmarks within limits")
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv))
