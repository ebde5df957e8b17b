"""The measurement service: a zero-dependency threaded HTTP daemon.

``MeasurementServer`` wraps :class:`http.server.ThreadingHTTPServer`
around one shared :class:`~repro.server.state.ServerState`. Handler
threads only *read* warm state (datasets, pre-built indexes, the
artefact memo), so the ThreadingHTTPServer's thread-per-connection
model needs no request-path locking beyond the artefact-compute lock
the state owns.

Operational contract:

* **Warmup.** ``start()``/``serve_forever()`` answer immediately;
  every data route returns 503 with the current warm phase until
  :meth:`ServerState.warm` finishes. ``/healthz`` and the telemetry
  plane (``/metrics``, ``/stats``, ``/events``, ``/dashboard``,
  ``/profile``) work before readiness — you can watch a warmup.
* **Graceful shutdown.** ``daemon_threads`` is off and
  ``block_on_close`` on, so ``server_close()`` joins every in-flight
  handler thread: SIGTERM/SIGINT stop accepting, drain, then exit
  (130 for SIGINT, 0 for SIGTERM — matching the runner's convention).
  :meth:`stop` stops the live sampler *first* so blocked ``/events``
  handlers wake and drain instead of deadlocking the join, and shuts
  the read side of every open connection so handlers idling on a
  keep-alive connection read EOF; a request already read still gets
  its response.
* **Bounded threads.** At most :data:`MAX_CONNECTIONS` connections
  are open at once, one handler thread each. The accept thread closes
  any connection beyond that without starting a handler and counts it
  in ``server.connections_refused``, so clients outside the process
  cannot set the server's thread count. A connection that sends
  nothing for :data:`IDLE_TIMEOUT_S`, or stops reading a response for
  that long, is closed, freeing its slot.
* **No Nagle.** Responses go out as two sends (headers, body); the
  handler sets ``TCP_NODELAY`` so the body does not wait ~40 ms for
  the client's delayed ACK of the headers on a keep-alive connection.
* **Observability.** Every request runs under an ``obs.span``
  (``server.request`` with route/path/status attrs) and feeds the
  ``server.requests`` counters plus per-route ``server.latency_s.*``
  histograms. The server installs a metrics-only
  :class:`~repro.obs.recorder.MetricsRecorder` when the process has no
  collecting recorder — bounded memory for an always-on daemon — and a
  :class:`~repro.obs.live.LiveSampler` snapshots that registry every
  second for ``/stats``, ``/events`` and the dashboard.
* **Distributed traces.** A client sending a W3C-style ``traceparent``
  header gets an ``X-Repro-Span`` response header: the server-side
  ``server.request`` span exported as JSON, parented under the
  client's span id. The loadgen ``adopt()``\\ s these into its trace,
  so one tree shows both sides of every request.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import signal
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

from repro import obs
from repro.obs import exposition
from repro.server.state import RequestError, ServerState

#: Open connections (and so handler threads) the server allows at once.
MAX_CONNECTIONS = 64

#: Seconds a connection may send nothing before the server closes it,
#: so idle clients cannot hold every connection slot.
IDLE_TIMEOUT_S = 30.0

#: The longest ``/profile?seconds=`` capture the server accepts.
PROFILE_MAX_S = 30.0

#: Every route the server understands (its metric and span label), with
#: the query parameters it reads. Any other name is a 400, so a misspelt
#: or unsupported parameter is never silently ignored. ``/query`` reads
#: every other name as a dimension, which the state checks against the
#: record kind, so it has no fixed set.
ROUTE_PARAMS: Dict[str, Optional[FrozenSet[str]]] = {
    "index": frozenset(),
    "healthz": frozenset(),
    "query": None,
    "artefact": frozenset({"render"}),
    "history": frozenset({"limit"}),
    "regress": frozenset({"run", "against"}),
    "metrics": frozenset(),
    "stats": frozenset({"window", "series"}),
    "events": frozenset({"max_events"}),
    "dashboard": frozenset(),
    "profile": frozenset({"seconds", "interval_ms"}),
}

#: Telemetry-plane routes served during warmup (before ``ready``).
OPS_ROUTES = ("metrics", "stats", "events", "dashboard", "profile")

#: Server-side span ids: PID + a process-wide sequence, so exports from
#: one daemon never collide inside an adopting client trace.
_span_seq = itertools.count(1)


def _route_of(path: str) -> str:
    """Collapse a URL path onto its route label (for metrics/spans)."""
    if path in ("", "/"):
        return "index"
    head = path.strip("/").split("/", 1)[0]
    return head if head in ROUTE_PARAMS else "unknown"


def _parse_traceparent(value: str) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` from a traceparent-style header, else None.

    Accepts the W3C shape ``00-<trace_id>-<span_id>-<flags>`` but is
    deliberately lenient about field widths: the loadgen sends repro
    span ids, not 16-hex-digit ones.
    """
    fields = value.strip().split("-")
    if len(fields) < 4:
        return None
    trace_id, span_id = fields[1], fields[2]
    if not trace_id or not span_id:
        return None
    return trace_id, span_id


class _Handler(BaseHTTPRequestHandler):
    """One request. All state lives on ``self.server.state``."""

    protocol_version = "HTTP/1.1"  # keep-alive: loadgen reuses connections
    server_version = "repro-serve"
    #: TCP_NODELAY, set by ``StreamRequestHandler.setup()``.
    disable_nagle_algorithm = True
    #: The socket timeout ``StreamRequestHandler.setup()`` applies. A
    #: read that waits longer ends the connection through
    #: ``handle_one_request``'s ``TimeoutError`` path; a response write
    #: that does is a 499 in ``do_GET``.
    timeout = IDLE_TIMEOUT_S

    # Per-request trace context (set by do_GET; defaults cover do_POST).
    _trace: Optional[Tuple[str, str]] = None
    _route = "unknown"
    _req_path = ""
    _started_unix = 0.0
    _t0 = 0.0

    # -- plumbing -------------------------------------------------------------

    @property
    def state(self) -> ServerState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.quiet:  # type: ignore[attr-defined]
            return
        super().log_message(format, *args)

    def _span_header(self, status: int) -> Optional[str]:
        """The ``X-Repro-Span`` export for a traced request (else None).

        Computed at header-send time, so ``duration_s`` is the server
        wall time *up to the response headers* — the compute, not the
        body flush. The export is one JSON object in the shape
        :meth:`repro.obs.spans.Span.to_jsonable` produces, parented
        under the client's span id so ``TraceRecorder.adopt`` slots it
        straight into the caller's tree.
        """
        if self._trace is None:
            return None
        trace_id, parent_id = self._trace
        export = {
            "name": "server.request",
            "span_id": f"{os.getpid():x}.srv.{next(_span_seq)}",
            "parent_id": parent_id,
            "start_unix": self._started_unix,
            "duration_s": round(time.perf_counter() - self._t0, 9),
            "status": "error" if status >= 500 else "ok",
            "attrs": {
                "route": self._route, "path": self._req_path,
                "status": status, "trace_id": trace_id,
                "server_pid": os.getpid(),
            },
            "events": [],
        }
        return json.dumps(export, separators=(",", ":"))

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_text(
        self, status: int, text: str, content_type: str
    ) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        span_export = self._span_header(status)
        if span_export is not None:
            self.send_header("X-Repro-Span", span_export)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> int:
        self._send_json(status, {"error": message, "status": status})
        return status

    # -- dispatch -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urllib.parse.urlsplit(self.path)
        route = _route_of(parsed.path)
        self._route = route
        self._req_path = parsed.path
        self._trace = _parse_traceparent(self.headers.get("traceparent", ""))
        self._started_unix = time.time()
        started = self._t0 = time.perf_counter()
        # started vs finished is the dashboard's in-flight derivation.
        obs.counter("server.requests_started").inc()
        with obs.span("server.request", route=route, path=parsed.path) as span:
            try:
                status = self._dispatch(route, parsed)
            except RequestError as error:
                status = self._error(error.status, error.message)
            except (BrokenPipeError, TimeoutError):
                # The client went away or stopped reading mid-response:
                # nothing more can be sent on this connection.
                self.close_connection = True
                status = 499
            except Exception as error:  # noqa: BLE001 — the daemon must survive
                status = self._error(
                    500, f"{type(error).__name__}: {error}"
                )
            span.set(status=status)
        elapsed = time.perf_counter() - started
        obs.counter("server.requests").inc()
        obs.counter(f"server.requests.{route}").inc()
        obs.counter(f"server.status.{status // 100}xx").inc()
        obs.histogram(f"server.latency_s.{route}").observe(elapsed)

    def do_POST(self) -> None:  # noqa: N802
        self._error(405, "only GET is supported")

    do_PUT = do_DELETE = do_PATCH = do_POST

    def _dispatch(self, route: str, parsed: urllib.parse.SplitResult) -> int:
        params = _single_params(parsed.query)
        reads = ROUTE_PARAMS.get(route)
        unread = sorted(params.keys() - reads) if reads is not None else ()
        if unread:
            raise RequestError(
                400, f"unknown parameter {unread[0]!r} for {parsed.path} "
                f"(it reads: {', '.join(sorted(reads)) or 'none'})"
            )
        if route == "healthz":
            payload = self.state.healthz()
            status = 200 if payload["status"] == "ok" else 503
            self._send_json(status, payload)
            return status
        if route == "index":
            self._send_json(200, {"service": "repro-serve",
                                  "endpoints": self.state.endpoints()})
            return 200
        if route == "unknown":
            return self._error(
                404,
                f"unknown path {parsed.path!r}; GET / lists the endpoints",
            )
        if route in OPS_ROUTES:
            # The telemetry plane works during warmup: watching a warm
            # phase is exactly when you want /metrics and /dashboard.
            if route == "metrics":
                return self._do_metrics(params)
            if route == "stats":
                return self._do_stats(params)
            if route == "events":
                return self._do_events(params)
            if route == "dashboard":
                return self._do_dashboard(params)
            return self._do_profile(params)
        if not self.state.ready.is_set():
            payload = self.state.healthz()
            self._send_json(503, payload)
            return 503
        if route == "query":
            return self._do_query(params)
        if route == "artefact":
            return self._do_artefact(parsed.path, params)
        if route == "history":
            self._send_json(200, self.state.history(
                limit=_int_param(params, "limit", 50)))
            return 200
        if route == "regress":
            self._send_json(200, self.state.regress(
                run_id=params.get("run") or None,
                against=params.get("against") or None,
            ))
            return 200
        return self._error(404, f"unroutable path {parsed.path!r}")

    # -- data routes -----------------------------------------------------------

    def _do_query(self, params: Dict[str, str]) -> int:
        kind = params.pop("kind", "")
        if not kind:
            raise RequestError(400, "query requires a kind= parameter")
        group_by = _list_param(params.pop("group_by", ""))
        count_by = _list_param(params.pop("count_by", ""))
        records = _int_param(params, "records", 0)
        params.pop("records", None)
        payload = self.state.query(
            kind, where=params, group_by=group_by, count_by=count_by,
            records=records,
        )
        self._send_json(200, payload)
        return 200

    def _do_artefact(self, path: str, params: Dict[str, str]) -> int:
        parts = [part for part in path.strip("/").split("/") if part]
        if len(parts) != 2:
            raise RequestError(
                400, "artefact path must be /artefact/<id>, e.g. /artefact/T2"
            )
        render = params.get("render", "") in ("1", "true", "yes")
        payload = self.state.artefact(parts[1], render=render)
        self._send_json(200, payload)
        return 200

    # -- telemetry routes ------------------------------------------------------

    def _do_metrics(self, params: Dict[str, str]) -> int:
        body = exposition.render(registry=self.server.registry)
        self._send_text(200, body, exposition.CONTENT_TYPE)
        return 200

    def _do_stats(self, params: Dict[str, str]) -> int:
        window = _float_param(params, "window", 60.0)
        if window <= 0:
            raise RequestError(400, "window must be positive seconds")
        series = _list_param(params.get("series", ""))
        payload = self.server.sampler.stats(window_s=window, series=series)
        self._send_json(200, payload)
        return 200

    def _sse_write(self, event: str, data: Any) -> None:
        payload = json.dumps(data, sort_keys=True)
        self.wfile.write(f"event: {event}\ndata: {payload}\n\n".encode())
        self.wfile.flush()

    def _do_events(self, params: Dict[str, str]) -> int:
        """Stream sampler ticks as Server-Sent Events.

        HTTP/1.1 with no Content-Length means the only way to end the
        stream is to close the connection, so ``close_connection`` is
        forced on. The loop wakes on every sampler tick (Condition
        broadcast, no polling), emits ``: keepalive`` comments on
        quiet timeouts, and exits on client disconnect, server
        shutdown, or after ``max_events=N`` ticks (how tests and curl
        get a bounded stream).
        """
        sampler = self.server.sampler
        max_events = _int_param(params, "max_events", 0)
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        stopping = self.server._stopping
        try:
            self.wfile.write(b"retry: 2000\n\n")
            self._sse_write("hello", {"sampler": sampler.info()})
            seen = sampler.ticks
            sent = 0
            while not stopping.is_set():
                event = sampler.wait_for_event(
                    seen, timeout_s=max(1.0, sampler.interval_s * 2)
                )
                if stopping.is_set():
                    break
                if event is None:
                    if not sampler.alive():
                        break
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                seen = event["tick"]
                self._sse_write("tick", event)
                sent += 1
                if max_events and sent >= max_events:
                    break
        except (BrokenPipeError, ConnectionResetError, OSError):
            return 499
        return 200

    def _do_dashboard(self, params: Dict[str, str]) -> int:
        from repro.server.dashboard import render_dashboard

        self._send_text(
            200, render_dashboard(), "text/html; charset=utf-8"
        )
        return 200

    def _do_profile(self, params: Dict[str, str]) -> int:
        """On-demand sampling profile: block, sample, return collapsed.

        One profile at a time (a second concurrent request gets 409 —
        two tickers would halve each other's effective rate), capped
        at :data:`PROFILE_MAX_S`, and aborted early by server shutdown so
        a profile never delays a drain.
        """
        seconds = _float_param(params, "seconds", 5.0)
        if seconds <= 0 or seconds > PROFILE_MAX_S:
            raise RequestError(
                400, f"seconds must be in (0, {PROFILE_MAX_S:g}], got {seconds:g}"
            )
        interval_ms = _float_param(params, "interval_ms", 10.0)
        if not 1.0 <= interval_ms <= seconds * 1000.0:
            raise RequestError(
                400, f"interval_ms must be in [1, {seconds * 1000.0:g}] "
                f"(the profile window), got {interval_ms:g}"
            )
        lock = self.server.profile_lock
        if not lock.acquire(blocking=False):
            return self._error(
                409, "a profile is already running; retry when it finishes"
            )
        try:
            profiler = obs.SamplingProfiler(interval_s=interval_ms / 1000.0)
            profiler.run_for(seconds, abort=self.server._stopping)
        finally:
            lock.release()
        body = profiler.collapsed()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body.encode("utf-8"))))
        self.send_header("X-Repro-Profile-Ticks", str(profiler.samples))
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))
        return 200


def _single_params(query: str) -> Dict[str, str]:
    """The query string as one value per name.

    A repeated name is a 400, not its last value: ``country=ESP&country=FRA``
    would otherwise answer for FRA alone, a silently wrong count.
    """
    params = {}
    for key, values in urllib.parse.parse_qs(query).items():
        if len(values) > 1:
            raise RequestError(
                400, f"parameter {key!r} is given {len(values)} times; pass it once"
            )
        params[key] = values[0]
    return params


def _int_param(params: Dict[str, str], name: str, default: int) -> int:
    raw = params.get(name, "")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise RequestError(400, f"{name} must be an integer, got {raw!r}")


def _float_param(
    params: Dict[str, str], name: str, default: float
) -> float:
    raw = params.get(name, "")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise RequestError(400, f"{name} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise RequestError(400, f"{name} must be finite, got {raw!r}")
    return value


def _list_param(raw: str) -> Tuple[str, ...]:
    return tuple(part for part in raw.split(",") if part)


class MeasurementServer(ThreadingHTTPServer):
    """The daemon: ThreadingHTTPServer + shared warm state + lifecycle."""

    #: Join in-flight handler threads on close — this is the graceful
    #: drain: stop accepting, finish what's running, then return.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    #: socketserver's default listen backlog is 5; hundreds of clients
    #: connecting at once overflow it and their SYNs retransmit after
    #: ~1s — a phantom latency spike that isn't the service at all.
    request_queue_size = 512

    def __init__(
        self,
        state: ServerState,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        sample_interval_s: float = 1.0,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {port}")
        self.state = state
        self.quiet = quiet
        self._warm_thread: Optional[threading.Thread] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        # Open client connections, so stop() can end idle keep-alives.
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        # Telemetry plane. A TraceRecorder keeps a span object per
        # request — unbounded on a daemon — so when nothing is
        # collecting yet, install the metrics-only recorder (bounded by
        # distinct instrument names) and restore the old one on stop().
        # A process that already collects (run-all --trace hosting a
        # server in-process) keeps its own registry.
        self._installed_recorder: Optional[obs.MetricsRecorder] = None
        self._previous_recorder: Any = None
        registry = getattr(obs.get_recorder(), "metrics", None)
        if registry is None:
            self._installed_recorder = obs.MetricsRecorder()
            registry = self._installed_recorder.metrics
        self.registry = registry
        self.sampler = obs.LiveSampler(registry, interval_s=sample_interval_s)
        # Bind only now: a bad number above raises ValueError with
        # nothing listening and no recorder installed.
        super().__init__((host, port), _Handler)
        if self._installed_recorder is not None:
            self._previous_recorder = obs.set_recorder(
                self._installed_recorder
            )
        self.profile_lock = threading.Lock()
        state.attach_telemetry(self._telemetry_info)

    def _telemetry_info(self) -> Dict[str, Any]:
        """The ``/healthz`` telemetry block: totals + sampler liveness."""
        return {
            "requests_total": self.registry.counter("server.requests").value,
            "requests_started": self.registry.counter(
                "server.requests_started"
            ).value,
            "errors_5xx": self.registry.counter("server.status.5xx").value,
            "sampler": self.sampler.info(),
        }

    # -- addresses ------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        if host in ("0.0.0.0", "::"):
            host = socket.gethostname()
        return f"http://{host}:{self.port}"

    # -- connections ----------------------------------------------------------
    #
    # Tracked on the accept thread rather than in the handler's setup():
    # once shutdown() has returned, every accepted connection is in the
    # set, even one whose handler thread has not started yet.

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        """Track the connection, then hand it to a handler thread.

        Past :data:`MAX_CONNECTIONS` open connections, close it here
        instead, unserved.
        """
        with self._connections_lock:
            admitted = len(self._connections) < MAX_CONNECTIONS
            if admitted:
                self._connections.add(request)
        if not admitted:
            obs.counter("server.connections_refused").inc()
            self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        """Untrack the connection, then close it."""
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def _end_reads(self) -> None:
        """Shut the read side of every open connection: a handler idling
        in ``readline()`` on a keep-alive connection reads EOF and
        returns, while one mid-request still writes its response."""
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the client already hung up

    # -- lifecycle ------------------------------------------------------------

    def warm_in_background(self) -> threading.Thread:
        """Kick off dataset warmup without blocking the accept loop."""
        if self._warm_thread is None:
            self._warm_thread = threading.Thread(
                target=self._warm_guarded, name="repro-serve-warm", daemon=True
            )
            self._warm_thread.start()
        return self._warm_thread

    def _warm_guarded(self) -> None:
        try:
            self.state.warm()
        except Exception:
            # warm() already captured the traceback onto the state; the
            # server stays up so /healthz can report the failure.
            pass

    def start(self) -> "MeasurementServer":
        """In-process mode (tests, benches): accept loop in a thread."""
        self.sampler.start()
        self.warm_in_background()
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drain in-flight requests, release the socket.

        Order matters: the sampler stops *before* ``server_close()``
        joins handler threads, so an ``/events`` handler blocked in
        ``wait_for_event`` wakes (Condition broadcast), sees
        ``_stopping`` and finishes — otherwise the join would wait a
        full SSE timeout per streaming client. Likewise the read side
        of every connection is shut after the accept loop stops, or the
        join would wait on each idle keep-alive client forever.
        """
        if self._stopping.is_set():
            self._stopped.wait(timeout=30.0)
            return
        self._stopping.set()
        self.sampler.stop()
        self.shutdown()
        self._end_reads()
        self.server_close()  # block_on_close joins handler threads
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=30.0)
        if (
            self._installed_recorder is not None
            and obs.get_recorder() is self._installed_recorder
        ):
            obs.set_recorder(self._previous_recorder)
        self._stopped.set()

    def run_foreground(self) -> int:
        """CLI mode: install signal handlers and serve until stopped.

        Returns the process exit code: 0 after SIGTERM (orderly
        platform stop), 130 after SIGINT (operator ^C) — the same
        convention the batch runner uses.
        """
        exit_code = {"value": 0}

        def _stop_from_signal(signum: int, _frame: Any) -> None:
            exit_code["value"] = 130 if signum == signal.SIGINT else 0
            # shutdown() must not run on the serve_forever thread (it
            # joins the accept loop) — and a signal handler runs on the
            # main thread, which *is* that thread here. Hand off.
            threading.Thread(target=self.stop, daemon=True).start()

        previous = {
            sig: signal.signal(sig, _stop_from_signal)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            self.sampler.start()
            self.warm_in_background()
            self.serve_forever()
            # Either a signal handed stop() to a helper thread (wait for
            # the drain to finish) or something broke the accept loop
            # (close up ourselves).
            self.stop()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        return exit_code["value"]


def create_server(
    seed: int = 2024,
    scale: float = 0.15,
    history_dir: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    sample_interval_s: float = 1.0,
) -> MeasurementServer:
    """One-call constructor used by the CLI, tests and benches."""
    return MeasurementServer(
        ServerState(seed=seed, scale=scale, history_dir=history_dir),
        host=host, port=port, quiet=quiet, sample_interval_s=sample_interval_s,
    )
