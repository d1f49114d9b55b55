"""The live telemetry plane: an opt-in HTTP window into a running study.

Every other observability surface in :mod:`repro.obs` is post-hoc —
metrics snapshots, event files and ``repro report`` only answer
questions after the run.  ``repro study --serve-telemetry [HOST:]PORT``
starts a :class:`TelemetryServer` (stdlib ``ThreadingHTTPServer``, no
new dependencies) on a daemon thread so an operator can ask a
multi-hour campaign, while it runs:

========================  ==============================================
endpoint                  answer
========================  ==============================================
``/metrics``              the live parent registry in Prometheus text
                          exposition (:data:`PROMETHEUS_CONTENT_TYPE`)
``/healthz``              200 + JSON while the study beats, 503 once a
                          shard stalls or heartbeats go stale
``/progress``             the :class:`~repro.obs.progress.\
ProgressTracker` snapshot: work done / total, ETA, per-shard high-water
``/events?n=K``           JSON tail (default 100) of the
                          :class:`~repro.obs.events.EventBus` ring
========================  ==============================================

The server only *reads* shared state — registry snapshots, the tracker
(behind its lock), the event ring — and serves on its own thread, so it
can never perturb results; byte-identity of a telemetry-served run
against a bare serial one is asserted end-to-end in the flight-recorder
tests (DESIGN §6).

The HTTP transport loads in :meth:`TelemetryServer.start`: importing
this module (or :mod:`repro.obs`, or the CLI) loads no ``http.server``,
``ssl`` or ``email``, so the processes that never serve — every serial
study, every ``repro classify``, every pool worker — never pay for them.

:class:`HealthMonitor` is the tiny shared truth behind ``/healthz``,
and an event-bus subscriber (:meth:`HealthMonitor.on_event`): any
event is a beat, ``shard.stalled``/``shard.recovered`` (judged by the
runner's stall watchdog) flip it per shard, and ``study.done`` freezes
it healthy (a completed study is not "stale", however long ago it
beat).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .events import Event, EventBus, get_event_bus
from .export import PROMETHEUS_CONTENT_TYPE, to_prometheus
from .metrics import MetricsRegistry, get_registry
from .progress import ProgressTracker
from .trace import Clock, MonotonicClock

DEFAULT_HOST = "127.0.0.1"
DEFAULT_EVENT_TAIL = 100

JSON_CONTENT_TYPE = "application/json; charset=utf-8"


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``"[HOST:]PORT"`` -> ``(host, port)``; port 0 = ephemeral.

    A bare port binds loopback (:data:`DEFAULT_HOST`) — telemetry is
    plaintext and unauthenticated, so exposing it beyond the host is an
    explicit choice (``0.0.0.0:9090``).
    """
    host, _, port_text = text.rpartition(":")
    host = host or DEFAULT_HOST
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad telemetry endpoint {text!r}: expected [HOST:]PORT")
    if not 0 <= port <= 65535:
        raise ValueError(
            f"bad telemetry port {port}: expected 0-65535")
    return host, port


class HealthMonitor:
    """Thread-safe liveness state behind ``/healthz``.

    Healthy means: no shard currently flagged stalled, and — when built
    with a ``stall_timeout`` — the last beat is no older than that
    (covers the serial loop, which has no per-shard watchdog).  A
    finished study is permanently healthy.
    """

    def __init__(self, stall_timeout: Optional[float] = None,
                 clock: Optional[Clock] = None):
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(
                f"stall timeout must be > 0: {stall_timeout}")
        self.stall_timeout = stall_timeout
        self.clock = clock or MonotonicClock()
        self._lock = threading.Lock()
        self._beats = 0
        self._last_beat = self.clock.now()
        self._stalled: Dict[Any, float] = {}
        self._finished = False

    def on_event(self, event: Event) -> None:
        """Bus subscriber: every event is a sign of life."""
        self.beat()
        if event.kind == "shard.stalled":
            self.stall(event.fields["shard"])
        elif event.kind == "shard.recovered":
            self.clear(event.fields["shard"])
        elif event.kind == "study.done":
            self.finish()

    def beat(self) -> None:
        """Any sign of life: an event emitted or forwarded."""
        with self._lock:
            self._beats += 1
            self._last_beat = self.clock.now()

    def stall(self, shard_id: Any) -> None:
        """The watchdog flagged one shard as silent past its deadline."""
        with self._lock:
            self._stalled[shard_id] = self.clock.now()

    def clear(self, shard_id: Any) -> None:
        """The flagged shard beat again or completed."""
        with self._lock:
            self._stalled.pop(shard_id, None)

    def finish(self) -> None:
        """The study returned: freeze healthy, stop judging staleness."""
        with self._lock:
            self._finished = True
            self._stalled.clear()

    @property
    def healthy(self) -> bool:
        with self._lock:
            if self._stalled:
                return False
            if self._finished or self.stall_timeout is None:
                return True
            return (self.clock.now() - self._last_beat
                    <= self.stall_timeout)

    def status(self) -> Dict[str, Any]:
        """The JSON body ``/healthz`` serves."""
        healthy = self.healthy
        with self._lock:
            return {
                "status": "ok" if healthy else "stalled",
                "beats": self._beats,
                "finished": self._finished,
                "stalled_shards": sorted(
                    str(shard) for shard in self._stalled),
                "since_last_beat_s": round(
                    self.clock.now() - self._last_beat, 3),
            }


class TelemetryServer:
    """Serves /metrics, /healthz, /progress and /events for one study.

    Build it, :meth:`start` it (port 0 picks a free port — read
    :attr:`url` after), hand it the run's bus-fed tracker with
    :meth:`set_tracker` (its :attr:`health` monitor subscribes to the
    bus the same way), and :meth:`stop` it when the run is over.
    :meth:`respond` is the transport-free core — tests drive it
    directly, the HTTP handler delegates to it.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = 0, *,
                 registry: Optional[MetricsRegistry] = None,
                 bus: Optional[EventBus] = None,
                 health: Optional[HealthMonitor] = None):
        self.host = host
        self.port = port
        self._registry = registry
        self._bus = bus
        self.health = health or HealthMonitor()
        self._tracker: Optional[ProgressTracker] = None
        self._httpd: Any = None  # a ThreadingHTTPServer once started
        self._thread: Optional[threading.Thread] = None

    def set_tracker(self, tracker: Optional[ProgressTracker]) -> None:
        """The tracker ``/progress`` serves (None: no active study)."""
        self._tracker = tracker

    # -- lifecycle -----------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        # The transport loads here, not at import: the plane is opt-in,
        # and http.server pulls in the ssl and email packages.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        telemetry = self

        class Handler(BaseHTTPRequestHandler):
            """Thin HTTP shim: all routing lives in :meth:`respond`."""

            server_version = "repro-telemetry"

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    status, content_type, body = telemetry.respond(
                        self.path)
                except Exception as error:  # never kill the serving thread
                    status, content_type = 500, "text/plain; charset=utf-8"
                    body = f"telemetry error: {error}\n".encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                try:
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # scraper went away mid-response

            def log_message(self, format: str, *args: Any) -> None:
                pass  # scrapes must not spam the study's stderr

        # ThreadingHTTPServer serves each request on a daemon thread.
        httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.host, self.port = httpd.server_address[:2]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-telemetry", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- routing -------------------------------------------------------------

    def respond(self, path: str) -> Tuple[int, str, bytes]:
        """Route one GET: ``(status, content type, body bytes)``."""
        parsed = urlsplit(path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            return self._metrics()
        if route == "/healthz":
            return self._healthz()
        if route == "/progress":
            return self._progress()
        if route == "/events":
            return self._events(parse_qs(parsed.query))
        return (404, "text/plain; charset=utf-8",
                b"unknown endpoint; try /metrics /healthz /progress "
                b"/events\n")

    def _metrics(self) -> Tuple[int, str, bytes]:
        registry = self._registry or get_registry()
        # snapshot() iterates live dicts the study mutates from its own
        # thread; retry the rare concurrent-resize race instead of
        # serving a 500 to the scraper.
        for attempt in range(3):
            try:
                body = to_prometheus(registry)
                break
            except RuntimeError:
                if attempt == 2:
                    raise
        return 200, PROMETHEUS_CONTENT_TYPE, body.encode("utf-8")

    def _healthz(self) -> Tuple[int, str, bytes]:
        status = self.health.status()
        code = 200 if status["status"] == "ok" else 503
        return code, JSON_CONTENT_TYPE, _json_body(status)

    def _progress(self) -> Tuple[int, str, bytes]:
        tracker = self._tracker
        if tracker is None:
            return (200, JSON_CONTENT_TYPE,
                    _json_body({"active": False, "eta": None}))
        return 200, JSON_CONTENT_TYPE, _json_body(tracker.snapshot())

    def _events(self, query: Dict[str, Any]) -> Tuple[int, str, bytes]:
        try:
            tail = int(query.get("n", [DEFAULT_EVENT_TAIL])[0])
        except (TypeError, ValueError):
            return (400, "text/plain; charset=utf-8",
                    b"bad ?n=: expected an integer\n")
        bus = self._bus or get_event_bus()
        events = bus.events
        if tail >= 0:
            events = events[-tail:] if tail else []
        return 200, JSON_CONTENT_TYPE, _json_body(
            {"count": len(events),
             "events": [event.to_dict() for event in events]})


def _json_body(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True, default=str) +
            "\n").encode("utf-8")
