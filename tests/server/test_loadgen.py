"""The load harness and the SLO gate it feeds."""

import json

import pytest

from repro.obs.history import HistoryStore
from repro.obs.regress import KIND_LATENCY, KIND_SLO, compare, detect, judge
from repro.server import create_server
from repro.server.loadgen import (
    MAX_DURATION_S,
    MIX,
    RATE_RPS,
    SENDERS,
    LoadGenerator,
    LoadgenReport,
    RouteStats,
    run_loadgen,
)
from repro.server.slo import (
    MAX_ERROR_RATE,
    ROUTE_SLOS_P99_S,
    record_from_loadgen,
)


def make_report(p99_s=0.01, route="query", count=100, errors=0):
    """A synthetic single-route report whose p99 is exactly ``p99_s``."""
    stats = RouteStats(
        count=count, errors=errors,
        latencies_s=[p99_s * 0.1] * (count - 1) + [p99_s],
    )
    return LoadgenReport(
        url="http://test:0", senders=SENDERS, duration_s=1.0, seed=1,
        wall_s=1.0, total_requests=count, total_errors=errors,
        routes={route: stats},
    )


def test_percentiles_are_exact_order_statistics():
    stats = RouteStats(latencies_s=[float(i) for i in range(1, 101)])
    assert stats.percentile(0.50) == 51.0
    assert stats.percentile(0.95) == 96.0
    assert stats.percentile(0.99) == 100.0
    assert RouteStats().percentile(0.99) == 0.0


def _schedule(seed, duration_s=10.0):
    generator = LoadGenerator("h", 1, duration_s=duration_s, seed=seed)
    generator.countries = ("USA", "ESP", "JPN")
    return generator.schedule()


def test_schedule_is_deterministic_per_seed():
    requests = _schedule(7)
    assert requests == _schedule(7)
    assert requests != _schedule(8)
    dues = [due_s for due_s, _, _ in requests]
    assert dues == sorted(dues)
    assert all(0 <= due_s < 10.0 for due_s in dues)
    routes = {route for _, route, _ in requests}
    assert "query" in routes and "healthz" in routes


def test_schedule_offers_the_rate_and_the_mix():
    requests = _schedule(2024, duration_s=60.0)
    assert len(requests) == pytest.approx(RATE_RPS * 60.0, rel=0.05)
    total = sum(weight for _, weight in MIX)
    for route, weight in MIX:
        share = sum(r == route for _, r, _ in requests) / len(requests)
        assert abs(share - weight / total) <= 0.02, (route, share)


def slo_violations(report):
    """Routes over budget, judged as ``loadgen --fail-on-slo`` judges them."""
    judged = judge([], record_from_loadgen(report))
    return [] if judged is None else [
        (verdict.artefact_id, verdict.kind) for verdict in judged.verdicts
    ]


def test_slo_check_flags_only_over_budget_routes():
    assert slo_violations(make_report(p99_s=0.001)) == []
    violations = slo_violations(make_report(p99_s=ROUTE_SLOS_P99_S["query"] * 2))
    assert violations == [("query", KIND_SLO)]
    # Routes with no declared budget are never flagged.
    assert slo_violations(make_report(p99_s=99.0, route="exotic")) == []


def test_record_from_loadgen_shape():
    report = make_report(p99_s=0.02)
    record = record_from_loadgen(report, now=123.0, host="ci")
    assert record.kind == "loadgen"
    assert record.group_key().startswith("loadgen-")
    assert record.jobs == report.senders
    assert record.status == "ok"
    stats = record.artefacts["query"]
    assert stats.wall_s == pytest.approx(0.02)
    assert stats.slo_s == ROUTE_SLOS_P99_S["query"]
    assert record.metrics["loadgen.requests"] == 100.0


def test_record_from_loadgen_fails_on_error_rate():
    errors = int(100 * MAX_ERROR_RATE) + 5
    report = make_report(count=100, errors=errors)
    record = record_from_loadgen(report)
    assert record.status == "failed"
    assert not record.ok


def test_slo_violation_verdict_needs_no_baseline():
    record = record_from_loadgen(
        make_report(p99_s=ROUTE_SLOS_P99_S["query"] * 3)
    )
    report = compare(record, [])
    (verdict,) = report.verdicts
    assert verdict.kind == KIND_SLO
    assert verdict.artefact_id == "query"
    assert "SLO budget" in verdict.detail


def test_detect_gates_first_ever_loadgen_run(tmp_path):
    store = HistoryStore(tmp_path)
    store.append(record_from_loadgen(
        make_report(p99_s=ROUTE_SLOS_P99_S["query"] * 3)
    ))
    report = detect(store)
    assert not report.ok()
    assert report.verdicts[0].kind == KIND_SLO


def test_detect_flags_seeded_latency_regression(tmp_path):
    store = HistoryStore(tmp_path)
    for offset in range(3):
        store.append(record_from_loadgen(
            make_report(p99_s=0.02), now=100.0 + offset
        ))
    chaos = record_from_loadgen(make_report(p99_s=0.5), now=200.0)
    store.append(chaos)
    report = detect(store, run_id=chaos.run_id)
    kinds = {verdict.kind for verdict in report.verdicts}
    assert KIND_LATENCY in kinds


def test_loadgen_input_validation():
    with pytest.raises(ValueError):
        LoadGenerator("h", 1, duration_s=0)
    # The schedule is built whole before the first send: refuse a run
    # longer than an hour before building any of it.
    with pytest.raises(ValueError, match="<= 3600"):
        LoadGenerator("h", 1, duration_s=1e7)
    assert LoadGenerator("h", 1, duration_s=MAX_DURATION_S).duration_s == 3600


def test_loadgen_against_live_server(tmp_path):
    srv = create_server(scale=0.02).start()
    try:
        report = run_loadgen("127.0.0.1", srv.port, duration_s=1.5, seed=3)
        # Every scheduled request was sent, and the count is the seed's.
        assert report.total_requests == len(_schedule(3, duration_s=1.5))
        assert report.unsent == 0
        assert report.total_errors == 0
        assert report.throughput_rps > 0
        assert set(report.routes) <= {"query", "artefact", "history",
                                      "healthz", "metrics", "stats"}
        for stats in report.routes.values():
            assert stats.count == len(stats.latencies_s)
        # The JSON report round-trips.
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["total_requests"] == report.total_requests
        assert "p99_s" in payload["routes"]["query"]
        # The rendered summary is human-shaped.
        text = report.render()
        assert "senders" in text and "req/s" in text
        # The record keys on the served scale, not a default.
        record = record_from_loadgen(report)
        assert record.scale == 0.02
        assert "scale0.02" in record.group_key()
    finally:
        srv.stop()


def test_chaos_latency_is_injected_into_recordings(tmp_path):
    srv = create_server(scale=0.02).start()
    try:
        report = run_loadgen(
            "127.0.0.1", srv.port, duration_s=1.0, seed=3,
            chaos_latency_s=2.0,
        )
        latencies = [
            latency for stats in report.routes.values()
            for latency in stats.latencies_s
        ]
        assert latencies
        assert min(latencies) >= 2.0
        assert report.chaos_latency_s == 2.0
        # The chaos run violates the declared budgets under 2 s.
        assert slo_violations(report)
    finally:
        srv.stop()


#: The schedule offers RATE_RPS (200 req/s), which a server that keeps up
#: delivers; a server that falls behind stretches the run's wall time.
#: The floor leaves room for slow CI boxes.
SLO_DURATION_S = 6.0
MIN_THROUGHPUT_RPS = 75.0


def test_warm_server_meets_every_route_slo_under_load():
    """The seeded mixed workload against a fully warmed in-process
    service: no errors (an unsent request is one), every route within its
    declared p99 SLO, and the schedule, not the server, sets the pace."""
    srv = create_server(scale=0.15, quiet=True).start()
    try:
        assert srv.state.ready.wait(timeout=300), srv.state.warm_error
        report = LoadGenerator(
            "127.0.0.1", srv.port, duration_s=SLO_DURATION_S, seed=2024,
        ).run()
    finally:
        srv.stop()

    assert report.total_requests > 0
    assert report.total_errors == 0, report.render()
    violations = slo_violations(report)
    assert not violations, violations
    assert report.throughput_rps >= MIN_THROUGHPUT_RPS, (
        f"{report.throughput_rps:.1f} req/s (floor {MIN_THROUGHPUT_RPS:.0f})"
    )
    record = record_from_loadgen(report)
    assert record.kind == "loadgen"
    assert all(
        stats.slo_s > 0 for route, stats in record.artefacts.items()
        if route in ROUTE_SLOS_P99_S
    )
