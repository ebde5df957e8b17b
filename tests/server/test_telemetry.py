"""The live telemetry plane, end to end against a real server.

Covers the ISSUE's integration bar: a /metrics double-scrape with
monotone counters, SSE framing read off a real socket at the sampler's
cadence, the on-demand profiler endpoint (including its 409 mutex),
distributed trace re-parenting via traceparent/X-Repro-Span, and the
ops routes answering before the server is warm.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import exposition
from repro.server import ROUTE_SLOS_P99_S, LoadGenerator, create_server
from repro.server.loadgen import MIX, SENDERS


def _get(url, timeout=30.0, headers=None):
    """GET -> (status, body bytes, headers)."""
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), response.headers
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One warm server with a fast sampler (0.2 s ticks)."""
    history = tmp_path_factory.mktemp("telemetry-history")
    srv = create_server(
        scale=0.05, history_dir=str(history), sample_interval_s=0.2,
    ).start()
    assert srv.state.ready.wait(timeout=180), srv.state.warm_error
    yield srv
    srv.stop()


def test_sampler_config_is_plumbed(server):
    assert server.sampler.interval_s == 0.2
    assert server.sampler.alive()


def test_metrics_scrape_is_valid_and_monotone(server):
    # Complete one request first so the request counters exist: a
    # counter is born when its route *finishes*, and this test may be
    # the first traffic the module server sees.
    assert _get(f"{server.url}/healthz")[0] == 200
    status, first_body, headers = _get(f"{server.url}/metrics")
    assert status == 200
    assert headers["Content-Type"] == exposition.CONTENT_TYPE
    first = first_body.decode("utf-8")
    parsed = exposition.parse_exposition(first)  # syntactically valid
    names = set(parsed["types"])
    assert "repro_server_requests_total" in names
    assert "process_resident_memory_bytes" in names

    # Traffic between scrapes: every counter must move monotonically.
    for _ in range(3):
        assert _get(f"{server.url}/query?kind=web&count_by=country")[0] == 200
    second = _get(f"{server.url}/metrics")[1].decode("utf-8")

    before = exposition.counter_values(first)
    after = exposition.counter_values(second)
    assert set(before) <= set(after)
    assert all(after[name] >= value for name, value in before.items())
    assert (
        after["repro_server_requests_total"]
        >= before["repro_server_requests_total"] + 4
    )


def test_stats_reports_the_retained_window(server):
    _get(f"{server.url}/query?kind=web&count_by=country")
    time.sleep(0.5)  # let at least two ticks land
    status, body, headers = _get(
        f"{server.url}/stats?window=30&series=server.requests"
    )
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    payload = json.loads(body)
    assert payload["window_s"] == 30.0
    assert payload["sampler"]["ticks"] > 0
    assert payload["sampler"]["alive"] is True
    requests = payload["counters"]["server.requests"]
    assert requests["value"] > 0
    assert requests["samples"] > 0
    points = payload["series"]["server.requests"]
    assert points and all(len(point) == 2 for point in points)
    # The request latency histograms ride along, windowed.
    assert any(
        name.startswith("server.latency_s.")
        for name in payload["histograms"]
    )
    assert _get(f"{server.url}/stats?window=0")[0] == 400
    assert _get(f"{server.url}/stats?window=banana")[0] == 400


def test_events_streams_sse_frames_at_tick_cadence(server):
    """Real-socket SSE: framing, JSON payloads, and <= 2 s deltas."""
    sock = socket.create_connection(
        ("127.0.0.1", server.port), timeout=30.0
    )
    chunks = []
    try:
        sock.sendall(
            b"GET /events?max_events=3 HTTP/1.1\r\n"
            b"Host: localhost\r\nAccept: text/event-stream\r\n\r\n"
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            data = sock.recv(65536)
            if not data:
                break  # server closed: the stream is complete
            chunks.append((time.monotonic(), data))
    finally:
        sock.close()

    raw = b"".join(data for _, data in chunks).decode("utf-8")
    head, _, body = raw.partition("\r\n\r\n")
    assert head.startswith("HTTP/1.1 200")
    assert "text/event-stream" in head
    assert "Content-Length" not in head  # stream ends by connection close

    assert body.startswith("retry: 2000\n\n")
    frames = [frame for frame in body.split("\n\n") if frame.strip()]
    events = []
    for frame in frames:
        if frame.startswith(("retry:", ": ")):
            continue  # reconnect hint / keepalive comment
        lines = frame.split("\n")
        assert lines[0].startswith("event: "), frame
        assert lines[1].startswith("data: "), frame
        events.append(
            (lines[0][len("event: "):], json.loads(lines[1][len("data: "):]))
        )
    assert events[0][0] == "hello"
    assert events[0][1]["sampler"]["alive"] is True
    ticks = [payload for name, payload in events if name == "tick"]
    assert len(ticks) == 3
    tick_ids = [payload["tick"] for payload in ticks]
    assert tick_ids == sorted(tick_ids)
    assert all("counters" in payload for payload in ticks)

    # Cadence: with a 0.2 s sampler each tick arrives well inside the
    # ISSUE's <= 2 s delta bound. Chunk timestamps bound arrival gaps.
    arrivals = []
    seen = b""
    needed = 1
    for stamp, data in chunks:
        seen += data
        while seen.count(b"event: tick") >= needed:
            arrivals.append(stamp)
            needed += 1
    assert len(arrivals) == 3
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert all(gap < 2.0 for gap in gaps), gaps


def test_dashboard_serves_the_live_page(server):
    status, body, headers = _get(f"{server.url}/dashboard")
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    page = body.decode("utf-8")
    assert "EventSource('/events')" in page
    assert "/healthz" in page
    assert "server.latency_s." in page


def test_profile_endpoint_returns_collapsed_stacks(server):
    status, body, headers = _get(
        f"{server.url}/profile?seconds=0.3&interval_ms=5"
    )
    assert status == 200
    assert int(headers["X-Repro-Profile-Ticks"]) > 10
    for line in body.decode("utf-8").splitlines():
        frames, _, count = line.rpartition(" ")
        assert count.isdigit(), line
        assert ";" in frames, line


def test_profile_endpoint_validates_and_serializes(server):
    assert _get(f"{server.url}/profile?seconds=0")[0] == 400
    assert _get(f"{server.url}/profile?seconds=9999")[0] == 400
    assert _get(f"{server.url}/profile?seconds=1&interval_ms=0.1")[0] == 400
    # While one profile runs, a second request is refused, not queued.
    assert server.profile_lock.acquire(timeout=5.0)
    try:
        status, body, _ = _get(f"{server.url}/profile?seconds=0.2")
        assert status == 409
        assert b"already running" in body
    finally:
        server.profile_lock.release()


def test_healthz_reports_the_telemetry_plane(server):
    status, body, _ = _get(f"{server.url}/healthz")
    assert status == 200
    payload = json.loads(body)
    assert payload["uptime_s"] > 0
    telemetry = payload["telemetry"]
    assert telemetry["requests_total"] > 0
    assert telemetry["requests_started"] >= telemetry["requests_total"]
    assert telemetry["errors_5xx"] == 0
    assert telemetry["sampler"]["alive"] is True
    assert telemetry["sampler"]["ticks"] > 0
    assert telemetry["sampler"]["last_tick_age_s"] < 5.0


def test_traceparent_yields_an_adoptable_server_span(server):
    status, _, headers = _get(
        f"{server.url}/query?kind=web&count_by=country",
        headers={"traceparent": "00-trace1234-span5678-01"},
    )
    assert status == 200
    export = json.loads(headers["X-Repro-Span"])
    assert export["name"] == "server.request"
    assert export["parent_id"] == "span5678"
    assert export["status"] == "ok"
    assert export["duration_s"] > 0
    assert export["attrs"]["route"] == "query"
    assert export["attrs"]["trace_id"] == "trace1234"
    assert export["attrs"]["status"] == 200

    # The export slots straight into a client trace as a child.
    recorder = obs.TraceRecorder(trace_id="trace1234")
    with recorder.span("client.request") as span:
        pass
    recorder.adopt({"spans": [export]}, parent_id=span.span_id)
    adopted = {s.name: s for s in recorder.spans}
    assert adopted["server.request"].parent_id == span.span_id

    # No traceparent -> no span export header.
    _, _, plain = _get(f"{server.url}/healthz")
    assert plain.get("X-Repro-Span") is None


def test_traced_loadgen_merges_both_sides(server):
    generator = LoadGenerator(
        "127.0.0.1", server.port, duration_s=1.5, seed=7, trace=True,
    )
    report = generator.run()
    assert report.total_requests > 0
    assert report.total_errors == 0
    recorder = report.trace_recorder
    assert recorder is not None
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["loadgen.run"]) == 1
    client_spans = by_name["loadgen.request"]
    server_spans = by_name.get("server.request", [])
    assert len(client_spans) == report.total_requests
    # Every server-side span is parented under some client request span.
    client_ids = {span.span_id for span in client_spans}
    assert server_spans
    assert len(server_spans) == len(client_spans)
    assert all(span.parent_id in client_ids for span in server_spans)
    # The server parsed each sender's trace id whole out of traceparent.
    sender_trace_ids = {f"loadgen{7:x}s{index:x}" for index in range(SENDERS)}
    assert {span.attrs["trace_id"] for span in server_spans} <= sender_trace_ids


def test_ops_routes_answer_before_the_server_is_warm(tmp_path):
    """You can watch a warmup: telemetry works while data routes 503."""
    srv = create_server(
        scale=0.05, history_dir=str(tmp_path), sample_interval_s=0.2,
    )
    # Accept loop + sampler only — warm() is never started, so the
    # server stays un-ready for the whole test.
    srv.sampler.start()
    accept = threading.Thread(target=srv.serve_forever, daemon=True)
    accept.start()
    try:
        url = f"http://127.0.0.1:{srv.port}"
        assert _get(f"{url}/metrics")[0] == 200
        assert _get(f"{url}/stats")[0] == 200
        assert _get(f"{url}/dashboard")[0] == 200
        status, body, _ = _get(f"{url}/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "warming"
        assert payload["telemetry"]["sampler"]["alive"] is True
        assert _get(f"{url}/query?kind=web")[0] == 503
    finally:
        srv.stop()
        accept.join(timeout=30.0)
    assert not srv.sampler.alive()


def test_loadgen_mix_includes_telemetry_inside_slo_gates():
    assert sum(weight for _, weight in MIX) == 100
    routes = {route for route, _ in MIX}
    assert {"metrics", "stats"} <= routes
    # Telemetry routes are part of the SLO surface, so the gate has
    # budgets for them.
    assert ROUTE_SLOS_P99_S["metrics"] > 0
    assert ROUTE_SLOS_P99_S["stats"] > 0
