"""A small metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-flavoured but dependency-free.  Metrics carry optional
labels::

    LSPS_DROPPED = REGISTRY.counter(
        "lsps_dropped_total", "LSPs removed by an LPR filter")
    LSPS_DROPPED.inc(34, filter="incomplete")

Counters only go up; gauges go both ways; histograms count observations
into fixed upper-bound buckets (plus ``sum``/``count``).  Everything a
metric records is an integer or a float derived deterministically from
the data — metrics never read the clock, so a seeded run always produces
the identical snapshot (DESIGN §6).

Snapshots are plain dicts (JSON-ready).  :meth:`MetricsRegistry.diff`
subtracts two snapshots (per-cycle accounting),
:meth:`MetricsRegistry.absorb` re-applies a delta to the live metrics —
how `repro.par` workers' registries merge back into the parent process
on sharded runs — and :func:`delta_total` sums one metric of a delta.
The process-wide default registry lives in :data:`REGISTRY`; tests and
the CLI reset it via :meth:`MetricsRegistry.reset`.

Every metric is either a **result** or **execution telemetry**, declared
once at registration (``execution=True``).  Execution metrics — cache
hit/miss splits, store lookups, runner accounting, resource gauges —
depend on how a run was laid out over processes, not on the campaign.
Snapshots mark them with ``"execution": True``, and
:meth:`MetricsRegistry.results_only` drops them, together with every
type and help text, from the one per-cycle payload
(``CycleResult.metrics``), so neither reaches checkpoint bytes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                   500.0, 1000.0)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Shared naming/labelling machinery for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 execution: bool = False):
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self.execution = execution

    def labelled_values(self) -> List[Tuple[LabelKey, Any]]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 execution: bool = False):
        super().__init__(name, help, execution)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def labelled_values(self) -> List[Tuple[LabelKey, Any]]:
        return sorted(self._values.items())

    def reset(self) -> None:
        self._values.clear()


class Gauge(Metric):
    """A value that can go up and down (sizes, fractions, levels)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 execution: bool = False):
        super().__init__(name, help, execution)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def labelled_values(self) -> List[Tuple[LabelKey, Any]]:
        return sorted(self._values.items())

    def reset(self) -> None:
        self._values.clear()


class Histogram(Metric):
    """Observations counted into fixed upper-bound buckets.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches the rest.  Per label set the
    histogram keeps the bucket counts plus ``sum`` and ``count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS,
                 execution: bool = False):
        super().__init__(name, help, execution)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name}: buckets must be "
                             f"non-empty, unique, increasing: {bounds}")
        self.buckets = bounds
        self._data: Dict[LabelKey, Dict[str, Any]] = {}

    def _cell(self, key: LabelKey) -> Dict[str, Any]:
        if key not in self._data:
            self._data[key] = {
                "buckets": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
        return self._data[key]

    def observe(self, value: float, **labels: Any) -> None:
        cell = self._cell(_label_key(labels))
        cell["buckets"][bisect_left(self.buckets, value)] += 1
        cell["sum"] += value
        cell["count"] += 1

    def snapshot_cell(self, **labels: Any) -> Dict[str, Any]:
        cell = self._cell(_label_key(labels))
        return {"buckets": list(cell["buckets"]),
                "sum": cell["sum"], "count": cell["count"]}

    def absorb_cell(self, cell: Mapping[str, Any],
                    **labels: Any) -> None:
        """Add a snapshot cell (buckets/sum/count) into this histogram."""
        mine = self._cell(_label_key(labels))
        if len(cell["buckets"]) != len(mine["buckets"]):
            raise ValueError(
                f"histogram {self.name}: cannot absorb a cell with "
                f"{len(cell['buckets'])} buckets into "
                f"{len(mine['buckets'])}")
        mine["buckets"] = [a + b for a, b in zip(mine["buckets"],
                                                 cell["buckets"])]
        mine["sum"] += cell["sum"]
        mine["count"] += cell["count"]

    def labelled_values(self) -> List[Tuple[LabelKey, Any]]:
        return sorted(
            (key, {"buckets": list(cell["buckets"]),
                   "sum": cell["sum"], "count": cell["count"]})
            for key, cell in self._data.items()
        )

    def reset(self) -> None:
        self._data.clear()


class MetricsRegistry:
    """Holds every metric; get-or-create accessors keep call sites flat."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       execution: Optional[bool],
                       **kwargs: Any) -> Metric:
        """The metric registered under ``name``, created on first use.

        ``execution`` declares result (False) or execution telemetry
        (True); a declaration that contradicts the registered one
        raises like a kind mismatch.  None looks the metric up without
        declaring anything (a new metric is then a result).
        """
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, requested {cls.kind}")
            if execution is not None and existing.execution != execution:
                raise TypeError(
                    f"metric {name!r} already registered with "
                    f"execution={existing.execution}, requested "
                    f"execution={execution}")
            return existing
        metric = cls(name, help, execution=bool(execution), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                execution: Optional[bool] = None) -> Counter:
        return self._get_or_create(Counter, name, help, execution)

    def gauge(self, name: str, help: str = "",
              execution: Optional[bool] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, execution)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  execution: Optional[bool] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, execution,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every metric's values (registrations survive)."""
        for metric in self._metrics.values():
            metric.reset()

    def absorb(self, delta: Mapping[str, Any]) -> None:
        """Re-apply a snapshot delta to this registry's live metrics.

        ``delta`` is :meth:`diff` or :meth:`results_only` output (the
        registry delta a sharded-run worker sends home, or a restored
        cycle's metrics).  Counters and histogram cells add onto the
        current values; gauges take the delta's value.  A metric's
        kind is the one registered here; a metric absent from this
        registry is created with the delta's type, help text, buckets
        and execution flag.
        """
        for name in sorted(delta):
            data = delta[name]
            metric = self._metrics.get(name) or self._create(name, data)
            for entry in data["values"]:
                if isinstance(metric, Histogram):
                    metric.absorb_cell(entry["value"], **entry["labels"])
                elif isinstance(metric, Gauge):
                    metric.set(entry["value"], **entry["labels"])
                else:
                    metric.inc(entry["value"], **entry["labels"])

    def _create(self, name: str, data: Mapping[str, Any]) -> Metric:
        """Register a metric described by a snapshot entry."""
        kind = data.get("type", "counter")
        help, execution = data.get("help", ""), data.get("execution")
        if kind == "counter":
            return self.counter(name, help, execution)
        if kind == "gauge":
            return self.gauge(name, help, execution)
        if kind == "histogram":
            return self.histogram(
                name, help, buckets=data.get("buckets", DEFAULT_BUCKETS),
                execution=execution)
        raise ValueError(f"cannot absorb metric {name!r} of kind {kind!r}")

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready dump of every metric's current values."""
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "values": [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.labelled_values()
                ],
            }
            if isinstance(metric, Histogram):
                out[metric.name]["buckets"] = list(metric.buckets)
            if metric.execution:
                out[metric.name]["execution"] = True
        return out

    @staticmethod
    def results_only(delta: Mapping[str, Any]) -> Dict[str, Any]:
        """A snapshot or delta as result values alone.

        Execution metrics go, and every kept metric keeps only its
        ``values`` (labels and values): type, help text and buckets
        belong to the registered metric (:meth:`absorb` takes them
        from there), so rewording a help string changes no persisted
        byte.  Keeps the (sorted) key order of the input, so equal
        deltas pickle to equal bytes whatever execution telemetry ran
        beside them.
        """
        return {name: {"values": data["values"]}
                for name, data in delta.items()
                if not data.get("execution")}

    @staticmethod
    def diff(before: Mapping[str, Any],
             after: Mapping[str, Any]) -> Dict[str, Any]:
        """``after - before`` for counters/histograms; gauges keep
        their ``after`` value, but only when it *changed* in the
        window.  Metrics absent from ``before`` count from zero;
        zero-delta and unchanged-gauge entries are dropped — a
        long-lived gauge (say a worker's peak RSS) set outside the
        window must not leak into every subsequent delta.
        """
        out: Dict[str, Any] = {}
        for name, data in after.items():
            previous = {
                _label_key(entry["labels"]): entry["value"]
                for entry in before.get(name, {}).get("values", [])
            }
            values = []
            for entry in data["values"]:
                key = _label_key(entry["labels"])
                if (data["type"] == "gauge"
                        and previous.get(key) == entry["value"]):
                    continue
                delta = _subtract(data["type"], entry["value"],
                                  previous.get(key))
                if _is_zero(delta):
                    continue
                values.append({"labels": dict(entry["labels"]),
                               "value": delta})
            if values:
                out[name] = {**{k: v for k, v in data.items()
                                if k != "values"}, "values": values}
        return out


def _subtract(kind: str, after: Any, before: Any) -> Any:
    if before is None:
        return after
    if kind == "gauge":
        return after
    if kind == "histogram":
        return {
            "buckets": [a - b for a, b in zip(after["buckets"],
                                              before["buckets"])],
            "sum": after["sum"] - before["sum"],
            "count": after["count"] - before["count"],
        }
    return after - before


def _is_zero(value: Any) -> bool:
    if isinstance(value, dict):
        return value.get("count", 0) == 0 and not any(value["buckets"])
    return value == 0


def delta_total(delta: Mapping[str, Any], name: str,
                **labels: Any) -> float:
    """Sum of one metric's values in a snapshot or delta, over the
    label sets that match ``labels`` (all of them by default)."""
    return sum(entry["value"]
               for entry in delta.get(name, {}).get("values", ())
               if all(entry["labels"].get(key) == value
                      for key, value in labels.items()))


REGISTRY = MetricsRegistry()
"""The process-wide registry all library instrumentation reports to."""


def get_registry() -> MetricsRegistry:
    """The default registry (one per process, reset-able)."""
    return REGISTRY
