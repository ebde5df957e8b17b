"""The measurement service: routing, warmup, concurrency, shutdown."""

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.history import ArtefactStats, HistoryStore, RunRecord
from repro.server import MeasurementServer, ServerState, create_server
from repro.server.state import RequestError


def _get_text(url, timeout=30.0):
    """GET -> (status, body text), error statuses included."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def _get(url, timeout=30.0):
    """GET -> (status, parsed-json body), following the JSON error shape."""
    status, body = _get_text(url, timeout)
    return status, json.loads(body)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One warm in-process server shared by the read-only tests."""
    history = tmp_path_factory.mktemp("server-history")
    HistoryStore(history).append(RunRecord(
        run_id="seeded-run", created_unix=1.0, seed=2024, scale=0.05,
        jobs=1, total_wall_s=1.5,
        artefacts={"T2": ArtefactStats(wall_s=1.5)},
    ))
    srv = create_server(scale=0.05, history_dir=str(history)).start()
    assert srv.state.ready.wait(timeout=180), srv.state.warm_error
    yield srv
    srv.stop()


def test_healthz_reports_ready_state(server):
    status, payload = _get(f"{server.url}/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["phase"] == "ready"
    assert payload["datasets"]["device"] > 0
    assert payload["datasets"]["web"] == 116
    assert payload["warm_wall_s"] > 0


def test_index_lists_endpoints(server):
    status, payload = _get(f"{server.url}/")
    assert status == 200
    paths = {entry["path"] for entry in payload["endpoints"]}
    assert {"/healthz", "/query", "/artefact/<id>", "/history",
            "/regress"} <= paths


def test_query_matches_direct_results(server):
    status, payload = _get(
        f"{server.url}/query?kind=traceroute&count_by=country"
    )
    assert status == 200
    direct = server.state.query(
        "traceroute", where={}, count_by=("country",)
    )
    assert payload["count"] == direct["count"] > 0
    assert payload["counts"] == json.loads(json.dumps(direct["counts"]))


def test_query_enum_dimension_coerced_from_string(server):
    status, payload = _get(
        f"{server.url}/query?kind=speedtest&sim_kind=esim"
    )
    assert status == 200
    assert payload["count"] > 0
    # An unmatched value is an empty slice, not an error.
    status, payload = _get(
        f"{server.url}/query?kind=speedtest&sim_kind=carrier-pigeon"
    )
    assert status == 200
    assert payload["count"] == 0


def test_concurrent_clients_get_byte_identical_responses(server):
    urls = [
        f"{server.url}/query?kind=traceroute&count_by=country",
        f"{server.url}/query?kind=speedtest&group_by=sim_kind",
        f"{server.url}/query?kind=web&count_by=country",
        f"{server.url}/query?kind=dns&country=USA",
    ]
    reference = {}
    for url in urls:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            reference[url] = response.read()

    results = {url: [] for url in urls}
    errors = []

    def hammer(url):
        try:
            for _ in range(5):
                with urllib.request.urlopen(url, timeout=30.0) as response:
                    results[url].append(response.read())
        except Exception as error:  # noqa: BLE001 — collected for the assert
            errors.append(error)

    threads = [
        threading.Thread(target=hammer, args=(url,))
        for url in urls for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors
    for url in urls:
        assert len(results[url]) == 20
        assert all(body == reference[url] for body in results[url])


def _reject_constant(name):
    raise ValueError(f"bare {name} in a JSON body")


def test_malformed_requests_get_400s(server):
    cases = {
        "/query": "requires a kind",
        "/query?kind=bogus": "unknown record kind",
        "/query?kind=traceroute&nope=1": "unknown dimension",
        "/query?kind=traceroute&group_by=country&count_by=country":
            "not both",
        "/query?kind=traceroute&records=x": "must be an integer",
        "/query?kind=traceroute&day=abc": "day must be an integer",
        "/artefact": "must be /artefact/<id>",
        # The server answers at its own scale only: any scale= is refused,
        # in range or not, for a memoized (T2) or scale-aware (F7) artefact.
        "/artefact/T2?scale=abc": "unknown parameter 'scale'",
        "/artefact/T2?scale=0.5": "unknown parameter 'scale'",
        "/artefact/F7?scale=0.06": "unknown parameter 'scale'",
        "/artefact/F7?scale=nan": "unknown parameter 'scale'",
        "/artefact/F7?scale=1e9": "unknown parameter 'scale'",
        # Non-finite and out-of-range numbers never reach a handler.
        "/stats?window=nan": "window must be finite",
        "/stats?window=inf": "window must be finite",
        "/stats?window=-inf": "window must be finite",
        "/profile?seconds=nan": "seconds must be finite",
        "/profile?seconds=1&interval_ms=inf": "interval_ms must be finite",
        "/profile?seconds=1&interval_ms=nan": "interval_ms must be finite",
        "/profile?seconds=0.5&interval_ms=600": "the profile window",
        # A name the route does not read is refused, not ignored: the
        # baseline window is fixed, and a misspelt limit would list 50.
        "/regress?window=0": "unknown parameter 'window'",
        "/regress?window=-1": "unknown parameter 'window'",
        "/regress?run=seeded-run&window=3": "unknown parameter 'window'",
        "/history?limt=5": "unknown parameter 'limt'",
        "/history?limit=0": "limit must be at least 1",
        "/history?limit=-5": "limit must be at least 1",
        "/?verbose=1": "unknown parameter 'verbose'",
        "/healthz?deep=1": "unknown parameter 'deep'",
        "/artefact/T2?rendr=1": "unknown parameter 'rendr'",
        "/metrics?format=json": "unknown parameter 'format'",
        "/stats?windw=30": "unknown parameter 'windw'",
        "/events?max_event=1": "unknown parameter 'max_event'",
        "/dashboard?theme=dark": "unknown parameter 'theme'",
        "/profile?second=1": "unknown parameter 'second'",
        # A repeated name is refused, not resolved to its last value.
        "/query?kind=speedtest&country=ESP&country=FRA": "parameter 'country' is given 2 times",
        "/query?kind=speedtest&kind=traceroute": "parameter 'kind' is given 2 times",
        "/artefact/F7?scale=0.5&scale=1": "parameter 'scale' is given 2 times",
        "/history?limit=1&limit=2": "parameter 'limit' is given 2 times",
        # delay_s is no query dimension: refused like any unknown name.
        "/query?kind=traceroute&delay_s=nan": "unknown dimension 'delay_s'",
        "/query?kind=traceroute&delay_s=soon": "unknown dimension 'delay_s'",
    }
    for path, needle in cases.items():
        status, body = _get_text(f"{server.url}{path}", timeout=5.0)
        assert status == 400, path
        payload = json.loads(body, parse_constant=_reject_constant)
        assert needle in payload["error"], path


#: Names the fuzzer draws: the fuzzed routes' parameters, query
#: dimensions, the ``scale`` no route reads and one no route knows.
FUZZ_NAMES = (
    "kind", "country", "sim_kind", "day", "group_by", "count_by", "records",
    "limit", "run", "against", "window", "series", "render", "scale", "nope",
)

#: Routes the fuzzer draws: a warmed artefact, a scale-aware one and an
#: unknown id besides the four query-string routes.
FUZZ_ROUTES = (
    "/query", "/history", "/regress", "/stats",
    "/artefact/T2", "/artefact/F7", "/artefact/NOPE",
)
FUZZ_VALUES = st.one_of(
    st.sampled_from((
        "nan", "NaN", "inf", "-inf", "1e999", "-0", "0", "-1", "9" * 5000,
        "traceroute", "speedtest", "web", "ESP", "country", "country,rat",
        "seeded-run", "%zz", "%",
    )),
    st.integers(min_value=-10**40, max_value=10**40).map(str),
    st.floats().map(repr),
    st.binary(max_size=6),  # percent-encoded bytes, invalid UTF-8 included
    st.text(max_size=8),
)


def test_fuzzed_query_strings_never_fail_the_server(server):
    """Repeated names, percent-encoded bytes, NaN, inf and huge numbers
    on the query-string and artefact routes: every answer is a 2xx/4xx/503
    within 2 s, the server counts no 5xx, and the artefact memo holds
    registered ids only."""
    from repro.experiments import registry

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        route=st.sampled_from(FUZZ_ROUTES),
        params=st.lists(st.tuples(st.sampled_from(FUZZ_NAMES), FUZZ_VALUES), max_size=6),
    )
    def fuzz(route, params):
        path = f"{route}?{urllib.parse.urlencode(params)}"
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=2.0)
        started = time.perf_counter()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert time.perf_counter() - started < 2.0, path
        assert response.status in {200, 400, 404, 409, 503}, path

    fuzz()
    assert server.registry.counter("server.status.5xx").value == 0
    assert set(server.state._artefact_memo) <= set(registry.artefact_ids())


def test_keep_alive_requests_do_not_stall(server):
    """Headers and body go out as two sends; without TCP_NODELAY the body
    waits for the client's delayed ACK, about 40 ms per request."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        for path in ("/healthz", "/query?kind=traceroute&count_by=country", "/metrics"):
            walls = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                walls.append(time.perf_counter() - started)
                assert response.status == 200, path
            assert statistics.median(walls) < 0.020, (path, walls)
    finally:
        connection.close()


def test_unknown_paths_get_404(server):
    status, payload = _get(f"{server.url}/nope")
    assert status == 404
    assert "endpoints" in payload["error"]
    status, payload = _get(f"{server.url}/artefact/NOPE")
    assert status == 404
    assert "unknown artefact" in payload["error"]


def test_post_is_405(server):
    request = urllib.request.Request(
        f"{server.url}/query", data=b"{}", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30.0)
    assert excinfo.value.code == 405


def test_artefact_served_from_memo_after_warm(server):
    status, payload = _get(f"{server.url}/artefact/t2")
    assert status == 200
    assert payload["artefact"] == "T2"
    assert payload["source"] == "memo"  # warmed at startup
    assert payload["result"]
    status, rendered = _get(f"{server.url}/artefact/T2?render=1")
    assert status == 200
    assert "b-MNO" in rendered["rendered"]


@pytest.mark.parametrize("artefact_id", ["T2", "T4", "F7", "F10", "T3"])
def test_served_artefact_is_the_batch_result(server, artefact_id):
    """Warmed (T2, T4, F7) or computed on request (F10, T3), a served
    result is ``ThickMnaStudy.run``'s at the server's scale, and its
    ``scale`` is that scale, or None for the scale-free T2 and T3."""
    from repro.core.study import ThickMnaStudy
    from repro.experiments.export import jsonable

    scale = None if artefact_id in ("T2", "T3") else server.state.scale
    status, payload = _get(f"{server.url}/artefact/{artefact_id}")
    assert status == 200
    assert payload["scale"] == scale
    expected = ThickMnaStudy(seed=server.state.seed).run(artefact_id, scale=scale)
    assert payload["result"] == json.loads(json.dumps(jsonable(expected)))


def test_requested_scales_grow_neither_memo_nor_cache(server):
    """Ten distinct in-range scales compute nothing and store nothing."""
    from repro.core import cache as cache_mod

    memo = list(server.state._artefact_memo)
    entries = cache_mod.get_default_cache().info()["entry_count"]
    for index in range(10):
        _get(f"{server.url}/artefact/F7?scale={0.0101 + index / 10000:.4f}")
    assert list(server.state._artefact_memo) == memo
    assert cache_mod.get_default_cache().info()["entry_count"] == entries


def test_history_endpoint_lists_seeded_run(server):
    status, payload = _get(f"{server.url}/history")
    assert status == 200
    assert payload["total"] == 1
    (run,) = payload["runs"]
    assert run["run_id"] == "seeded-run"
    assert run["kind"] == "run_all"


def test_history_endpoint_skips_malformed_lines(server):
    """Lines that once crashed the loader (a string or null schema, a
    non-numeric seed) are skipped: /history still answers 200."""
    store = HistoryStore(server.state.history_dir)
    with store.path.open("a") as handle:
        handle.write('{"run_id": "x", "schema": "2"}\n')
        handle.write('{"run_id": "y", "schema": null}\n')
        handle.write('{"run_id": "z", "seed": "abc"}\n')
    status, payload = _get(f"{server.url}/history")
    assert status == 200
    assert [run["run_id"] for run in payload["runs"]] == ["seeded-run"]


def test_regress_endpoint_maps_errors(server):
    status, payload = _get(f"{server.url}/regress?run=nope")
    assert status == 404
    # One recorded run, no baselines, no SLOs: nothing to compare.
    status, payload = _get(f"{server.url}/regress")
    assert status == 409
    assert "baseline" in payload["error"]


def test_healthz_during_warmup_and_data_routes_503():
    state = ServerState(scale=0.02)
    srv = MeasurementServer(state)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        status, payload = _get(f"{srv.url}/healthz")
        assert status == 503
        assert payload["status"] == "warming"
        assert payload["phase"] == "pending"
        status, payload = _get(f"{srv.url}/query?kind=traceroute")
        assert status == 503
        state.warm()
        status, payload = _get(f"{srv.url}/healthz")
        assert status == 200
        status, payload = _get(f"{srv.url}/query?kind=traceroute")
        assert status == 200
        assert payload["count"] > 0
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=30.0)


def test_stop_drains_in_flight_requests():
    srv = create_server(scale=0.02).start()
    assert srv.state.ready.wait(timeout=120), srv.state.warm_error
    # Every query now takes over a second inside its handler.
    query = srv.state.query

    def slow_query(*args, **kwargs):
        time.sleep(1.0)
        return query(*args, **kwargs)

    srv.state.query = slow_query
    # A keep-alive client that got its answer and then went quiet: its
    # handler idles in readline() and must not hold up the drain.
    idle = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    idle.request("GET", "/healthz")
    assert idle.getresponse().read()
    outcome = {}

    def slow_request():
        outcome["status"], outcome["payload"] = _get(
            f"{srv.url}/query?kind=traceroute&count_by=country"
        )

    thread = threading.Thread(target=slow_request)
    thread.start()
    time.sleep(0.3)  # let the request reach the handler's sleep
    started = time.perf_counter()
    stopper = threading.Thread(target=srv.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=20.0)
    stop_wall = time.perf_counter() - started
    assert not stopper.is_alive(), "stop() hung on an idle keep-alive connection"
    thread.join(timeout=30.0)
    # stop() must have waited for the in-flight request, and the client
    # must have received the full, valid response.
    assert stop_wall >= 0.5
    assert outcome["status"] == 200
    assert outcome["payload"]["count"] > 0
    # The idle connection was closed by the server, not left dangling.
    assert idle.sock.recv(1) == b""
    idle.close()


def test_connections_past_the_cap_are_refused():
    """Open connections hold one handler thread each; past
    ``MAX_CONNECTIONS`` the accept thread closes a new one unserved."""
    from repro.server.app import MAX_CONNECTIONS

    srv = create_server(scale=0.02).start()
    idle = []
    try:
        for _ in range(MAX_CONNECTIONS):
            connection = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            idle.append(connection)  # keep-alive: its handler waits on it
        refused = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        try:
            assert refused.recv(1) == b""  # closed without a response
        finally:
            refused.close()
        idle[0].request("GET", "/healthz")
        response = idle[0].getresponse()
        assert response.status in (200, 503)
        assert json.loads(response.read())["phase"]
        assert srv.registry.counter("server.connections_refused").value == 1
    finally:
        for connection in idle:
            connection.close()
        srv.stop()


def test_idle_connections_time_out_and_free_their_slots(monkeypatch):
    """Connections that send nothing hold their slots only until the
    handler's ``timeout``: a new connection is refused while they are
    open, then admitted and served once the server has closed them."""
    from repro.server import app

    assert app._Handler.timeout == app.IDLE_TIMEOUT_S  # what ships; shortened below
    monkeypatch.setattr(app, "MAX_CONNECTIONS", 3)
    monkeypatch.setattr(app._Handler, "timeout", 1.5)
    srv = create_server(scale=0.02).start()
    refusals = srv.registry.counter("server.connections_refused")
    refused_before = refusals.value
    idle = []
    try:
        for _ in range(3):
            idle.append(socket.create_connection(("127.0.0.1", srv.port), timeout=15))
        refused = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        try:
            assert refused.recv(1) == b""  # closed without a response
        finally:
            refused.close()
        assert refusals.value == refused_before + 1
        for connection in idle:
            # EOF: the server timed it out, and it untracks a connection
            # before closing it, so its slot is already free.
            assert connection.recv(1) == b""
        late = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=5)
        try:
            late.request("GET", "/healthz")
            response = late.getresponse()
            assert response.status in (200, 503)
            assert json.loads(response.read())["phase"]
        finally:
            late.close()
        assert refusals.value == refused_before + 1
    finally:
        for connection in idle:
            connection.close()
        srv.stop()


def test_a_client_that_stops_reading_is_cut_off_as_499(monkeypatch):
    """A response write that waits longer than the handler's ``timeout``
    ends the connection and counts the request as a 499; the server
    sends no 500 after it on the stalled socket."""
    from repro.server import app

    monkeypatch.setattr(app._Handler, "timeout", 1.0)
    srv = create_server(scale=0.02).start()
    # Four times Linux's default send-buffer ceiling (tcp_wmem), so the
    # write stalls however far the server's buffer grows.
    pad = "x" * 16_000_000
    monkeypatch.setattr(srv.state, "healthz", lambda: {"status": "ok", "pad": pad})
    names = ("server.requests.healthz", "server.status.4xx", "server.status.5xx")
    counters = {name: srv.registry.counter(name) for name in names}
    before = {name: counter.value for name, counter in counters.items()}
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    try:
        stalled.connect(("127.0.0.1", srv.port))
        stalled.sendall(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
        deadline = time.monotonic() + 15
        while (
            counters["server.requests.healthz"].value == before["server.requests.healthz"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert counters["server.requests.healthz"].value == before["server.requests.healthz"] + 1
        assert counters["server.status.4xx"].value == before["server.status.4xx"] + 1
        assert counters["server.status.5xx"].value == before["server.status.5xx"]
    finally:
        stalled.close()
        srv.stop()


def test_sigterm_shuts_down_with_exit_zero(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--scale", "0.02"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        line = process.stdout.readline()
        assert "listening on" in line
        url = next(
            token for token in line.split() if token.startswith("http://")
        )
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            status, _ = _get(f"{url}/healthz", timeout=5.0)
            if status == 200:
                break
            time.sleep(0.25)
        else:
            pytest.fail("server never became ready")
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


def test_request_error_carries_status():
    error = RequestError(400, "nope")
    assert error.status == 400
    assert error.message == "nope"
