"""One judge for recorded runs: ``repro report``, ``repro regress``,
``GET /regress`` and ``repro loadgen --fail-on-slo`` give every recorded
run the same verdicts, because all four call
:func:`repro.obs.regress.judge`.

One store holds five groups, each built so that a reader with its own
baseline slice or its own SLO rule would disagree with the others:

* ``a``: a full run, an interrupted run whose completed T2 was fast,
  then a full run like the first. The interrupted run is no baseline,
  so the latest run is not slow.
* ``b``: a lone loadgen record whose ``query`` p99 is 3x its budget.
  An SLO budget gates without a baseline.
* ``c``: a loadgen record whose ``query`` route had 1 error in 200
  requests and a p99 10x its budget. Over budget is over budget,
  whatever the route's error count.
* ``d``: 12 runs of one group, the last one slow.
* ``e``: a baseline whose F5 took 0 s, then a run whose F5 took 0.3 s.
  The verdict stands, rendered without a ratio to the 0 s median.
"""

import json
import re
import urllib.request

import pytest

from repro.cli import main
from repro.obs.history import ArtefactStats, HistoryStore, RunRecord
from repro.obs.regress import KIND_LATENCY, KIND_SLO
from repro.server import MeasurementServer, ServerState
from repro.server.loadgen import LoadgenReport, RouteStats
from repro.server.slo import ROUTE_SLOS_P99_S, record_from_loadgen

_VERDICT_LINE = re.compile(
    r"^(\S+)\s+(new-failure|fingerprint-change|slo-violation|"
    r"latency-regression|cache-hit-drop)\s", re.MULTILINE,
)


def _run(run_id, when, walls, scale=0.05, status="ok"):
    """A run_all record: ``walls`` maps artefact id to wall seconds, or to
    None for an artefact an interrupted run never reached."""
    return RunRecord(
        run_id=run_id, created_unix=when, seed=2024, scale=scale, jobs=1,
        host="h", ok=status == "ok", status=status,
        artefacts={
            artefact_id: ArtefactStats(
                status="interrupted" if wall is None else "ok",
                wall_s=wall or 0.0,
                fingerprint="" if wall is None else f"fp-{artefact_id}",
            )
            for artefact_id, wall in walls.items()
        },
    )


def _loadgen_report(seed, query_p99_s, query_errors=0):
    """200 ``query`` requests with p99 ``query_p99_s`` plus 200 quick
    ``healthz`` requests, well inside their budget."""
    def route(p99_s, errors=0):
        return RouteStats(
            count=200, errors=errors,
            latencies_s=[p99_s / 10] * 198 + [p99_s] * 2,
        )

    return LoadgenReport(
        url="http://test:0", senders=4, duration_s=1.0, seed=seed,
        wall_s=1.0, total_requests=400, total_errors=query_errors,
        routes={
            "query": route(query_p99_s, query_errors),
            "healthz": route(0.005),
        },
        scale=0.15,
    )


LOADGEN_REPORTS = {
    "b": _loadgen_report(1, 3 * ROUTE_SLOS_P99_S["query"]),
    "c": _loadgen_report(2, 10 * ROUTE_SLOS_P99_S["query"], query_errors=1),
}

#: Each group's expected verdicts on its latest run.
EXPECTED = {
    "a": set(),
    "b": {("query", KIND_SLO)},
    "c": {("query", KIND_SLO)},
    "d": {("T2", KIND_LATENCY)},
    "e": {("F5", KIND_LATENCY)},
}


@pytest.fixture(scope="module")
def judged(tmp_path_factory):
    """The store, each group's latest run, the rendered report and a
    server reading the store."""
    root = tmp_path_factory.mktemp("one-judge")
    store = HistoryStore(root / "history")
    latest = {}
    store.append(_run("a-full-1", 0.0, {"T2": 0.5, "F7": 0.5}))
    store.append(_run("a-interrupted", 1.0, {"T2": 0.05, "F7": None},
                      status="interrupted"))
    latest["a"] = store.append(_run("a-full-2", 2.0, {"T2": 0.5, "F7": 0.5}))
    for group, report in LOADGEN_REPORTS.items():
        latest[group] = store.append(
            record_from_loadgen(report, host="h", now=3.0)
        )
    for index in range(12):
        wall = 0.9 if index == 11 else 0.2
        latest["d"] = store.append(
            _run(f"d-{index:02d}", 10.0 + index, {"T2": wall}, scale=0.15)
        )
    store.append(_run("e-zero", 30.0, {"F5": 0.0}, scale=0.25))
    latest["e"] = store.append(_run("e-slow", 31.0, {"F5": 0.3}, scale=0.25))
    assert len({record.group_key() for record in latest.values()}) == 5

    html_path = root / "report.html"
    assert main(["report", "--html", str(html_path),
                 "--history", str(store.root)]) == 0
    state = ServerState(scale=0.02, history_dir=str(store.root))
    server = MeasurementServer(state).start()
    assert state.ready.wait(timeout=60), state.warm_error
    yield store, latest, html_path.read_text(), server
    server.stop()


def _report_verdicts(html, key):
    """The verdicts the report shows in ``key``'s section."""
    (section,) = [
        part for part in html.split("<h2>")[1:] if part.startswith(f"{key}</h2>")
    ]
    blocks = re.findall(r"<pre[^>]*>(.*?)</pre>", section, re.DOTALL)
    return {
        (artefact, kind)
        for block in blocks for artefact, kind in _VERDICT_LINE.findall(block)
    }


@pytest.mark.parametrize("group", sorted(EXPECTED))
def test_report_regress_and_the_route_agree(judged, capsys, group):
    store, latest, html, server = judged
    record = latest[group]

    capsys.readouterr()
    assert main(["regress", "--run", record.run_id,
                 "--history", str(store.root)]) == 0
    printed = set(_VERDICT_LINE.findall(capsys.readouterr().out))

    url = f"{server.url}/regress?run={record.run_id}"
    with urllib.request.urlopen(url, timeout=30) as response:
        payload = json.loads(response.read())
    served = {(v["artefact_id"], v["kind"]) for v in payload["verdicts"]}

    shown = _report_verdicts(html, record.group_key())
    assert shown == printed == served == EXPECTED[group]


@pytest.mark.parametrize("group", sorted(LOADGEN_REPORTS))
def test_fail_on_slo_names_the_routes_with_slo_verdicts(
    judged, monkeypatch, capsys, group
):
    """On the report its group's record was built from, ``loadgen
    --fail-on-slo`` fails naming exactly the routes ``regress`` gives an
    SLO verdict."""
    import repro.server.loadgen as loadgen_mod

    store, latest, _, _ = judged
    capsys.readouterr()
    assert main(["regress", "--run", latest[group].run_id,
                 "--history", str(store.root)]) == 0
    over_budget = {
        artefact for artefact, kind
        in _VERDICT_LINE.findall(capsys.readouterr().out) if kind == KIND_SLO
    }
    assert over_budget == {"query"}

    monkeypatch.setattr(
        loadgen_mod, "run_loadgen", lambda *args, **kwargs: LOADGEN_REPORTS[group]
    )
    assert main(["loadgen", "--fail-on-slo", "--wait-ready", "0"]) == 1
    named = re.findall(r"^SLO VIOLATION (\S+):", capsys.readouterr().out,
                       re.MULTILINE)
    assert sorted(named) == sorted(over_budget)
