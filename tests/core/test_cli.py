"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def _python(code, *args, **kwargs):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, timeout=120, **kwargs
    )


def test_list_shows_all_artefacts(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for artefact in ("T2", "F11", "HX1", "X2"):
        assert artefact in out


def test_run_renders_table2(capsys):
    assert main(["run", "T2"]) == 0
    out = capsys.readouterr().out
    assert "Packet Host" in out
    assert "IHBO" in out


def test_run_unknown_artefact_errors(capsys):
    assert main(["run", "F99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_campaign_device_summary(capsys):
    assert main(["campaign", "device", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "device campaign:" in out
    assert "traceroutes" in out


def test_campaign_web_summary(capsys):
    assert main(["campaign", "web"]) == 0
    out = capsys.readouterr().out
    assert "web campaign:" in out
    assert "web records : 116" in out


def test_probe_known_country(capsys):
    assert main(["probe", "esp"]) == 0
    out = capsys.readouterr().out
    assert "architecture    : IHBO" in out
    assert "VoIP" in out


def test_probe_unknown_country(capsys):
    assert main(["probe", "ZZZ"]) == 2
    assert "does not serve" in capsys.readouterr().err


def test_market_overview(capsys):
    assert main(["market"]) == 0
    out = capsys.readouterr().out
    assert "Airalo" in out
    assert "Keepgo" in out


def test_market_country_query(capsys):
    assert main(["market", "--country", "esp", "--gb", "3"]) == 0
    out = capsys.readouterr().out
    assert "cheapest plans" in out


def test_market_impossible_query(capsys):
    assert main(["market", "--country", "ESP", "--gb", "500"]) == 2


BAD_MARKET_INPUT = [
    (["market", "--day", "-1"], "day must be in"),
    (["market", "--day", "70000"], "day must be in"),
    (["market", "--country", "ESP", "--day", "-1"], "day must be in"),
    (["market", "--top", "0"], "--top must be at least 1"),
    (["market", "--country", "ESP", "--top", "-1"], "--top must be at least 1"),
    (["trip", "ESP:1", "--day", "-1"], "day must be in"),
    (["trip", "ESP:1", "--day", "70000"], "day must be in"),
    # A non-finite or negative size is refused before any listing is built.
    (["market", "--country", "ESP", "--gb", "nan"], "--gb must be a non-negative finite number"),
    (["market", "--country", "ESP", "--gb", "inf"], "--gb must be a non-negative finite number"),
    (["market", "--country", "ESP", "--gb=-inf"], "--gb must be a non-negative finite number"),
    (["market", "--country", "ESP", "--gb", "-1"], "--gb must be a non-negative finite number"),
    (["market", "--gb", "nan"], "--gb must be a non-negative finite number"),
    (["trip", "ESP:nan"], "bad leg 'ESP:nan'"),
    (["trip", "ESP:inf"], "bad leg 'ESP:inf'"),
    (["trip", "FRA:1", "ESP:nan"], "bad leg 'ESP:nan'"),
]


@pytest.mark.parametrize(
    "argv, needle", BAD_MARKET_INPUT, ids=[" ".join(argv) for argv, _ in BAD_MARKET_INPUT]
)
def test_market_and_trip_reject_bad_input(capsys, argv, needle):
    """Bad flag values get one line on stderr and exit 2, no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert needle in captured.err


BAD_NUMERIC_INPUT = [
    ([command, *args, "--scale", value], "--scale must be a positive finite number")
    for command, args in (("run", ["F7"]), ("run-all", []), ("campaign", ["device"]),
                          ("chaos", []), ("serve", ["--port", "0"]))
    for value in ("0", "-1", "nan", "inf")
] + [
    (["run-all", "--jobs", "0"], "--jobs must be at least 1"),
    (["run-all", "--jobs", "-2", "--scale", "0.05"], "--jobs must be at least 1"),
] + [
    # Values the runner, the chaos configs and the profiler refuse
    # themselves; the CLI reports their message instead of a traceback.
    (["run-all", "--artefact-timeout", "0"], "artefact_timeout_s must be positive"),
    (["run-all", "--artefact-timeout", "-1"], "artefact_timeout_s must be positive"),
    (["run-all", "--artefact-timeout", "nan"], "artefact_timeout_s must be positive"),
    (["run-all", "--exec-crash-rate", "2"], "worker_crash_rate must be in [0, 1]"),
    (["run-all", "--exec-crash-rate", "-0.5"], "worker_crash_rate must be in [0, 1]"),
    (["run-all", "--exec-crash-rate", "nan"], "worker_crash_rate must be in [0, 1]"),
    (["run-all", "--exec-corrupt-cache", "nan"], "cache_corrupt_rate must be in [0, 1]"),
    (["run-all", "--exec-hang", "F7", "--exec-hang-s", "0"], "hang_s must be positive"),
    (["profile", "--interval-ms", "0", "--", "list"], "interval_s must be positive"),
    (["profile", "--interval-ms", "nan", "--", "list"], "interval_s must be positive"),
    (["chaos", "--makeup-days", "-1"], "max_makeup_days must be >= 0"),
    (["chaos", "--attach-reject", "nan"], "attach_reject_rate must be in [0, 1]"),
    # The server's and the load generator's own checks: no port is
    # bound and no request sent.
    (["serve", "--sample-interval", "0"], "interval_s must be a positive finite number"),
    (["serve", "--sample-interval", "nan"], "interval_s must be a positive finite number"),
    (["serve", "--port", "70000"], "port must be in [0, 65535]"),
    (["serve", "--port", "-1"], "port must be in [0, 65535]"),
    (["loadgen", "--duration", "-1"], "duration_s must be a positive finite number"),
    (["loadgen", "--duration", "inf"], "duration_s must be a positive finite number"),
    (["loadgen", "--duration", "nan"], "duration_s must be a positive finite number"),
    (["loadgen", "--duration", "1e7"], "duration_s must be a positive finite number <= 3600"),
    (["loadgen", "--chaos-latency", "nan"], "chaos_latency_s must be a non-negative finite"),
    # Counts and depths: refused before a trace is read or a report written.
    (["trace", "slowest", "t.jsonl", "--top", "0"], "--top must be at least 1"),
    (["trace", "slowest", "t.jsonl", "--top", "-1"], "--top must be at least 1"),
    (["trace", "tree", "t.jsonl", "--depth", "-1"], "--depth must be at least 0"),
    (["profile", "--top", "-1", "--", "list"], "--top must be at least 1"),
    (["report", "--html", "r.html", "--limit", "0"], "--limit must be at least 1"),
    (["report", "--html", "r.html", "--limit", "-3"], "--limit must be at least 1"),
    # An output file that is a directory: refused before any work.
    (["report", "--html", "."], "--html . is a directory"),
    (["run", "T2", "--json", "."], "--json . is a directory"),
    (["run-all", "--scale", "0.05", "--artefacts", "T2", "--json", "."],
     "--json . is a directory"),
    (["campaign", "device", "--scale", "0.05", "--save", "."], "--save . is a directory"),
    (["loadgen", "--json", "."], "--json . is a directory"),
    (["profile", "--out", ".", "--", "list"], "--out . is a directory"),
    # A directory flag that names an existing file: refused before any
    # work, not after the shard has run.
    (["run-all", "--scale", "0.05", "--artefacts", "T2", "--render-dir", "file"],
     "--render-dir file is not a directory"),
    (["run-all", "--scale", "0.05", "--artefacts", "T2", "--trace", "file"],
     "--trace file is not a directory"),
    (["run-all", "--scale", "0.05", "--artefacts", "T2", "--history", "file"],
     "--history file is not a directory"),
    (["run-all", "--scale", "0.05", "--artefacts", "T2", "--cache-dir", "file"],
     "--cache-dir file is not a directory"),
    (["loadgen", "--trace", "file"], "--trace file is not a directory"),
    (["report", "--html", "r.html", "--history", "file"],
     "--history file is not a directory"),
    # A path under an existing file can never be created: refused
    # before the artefact is printed or the shard runs.
    (["run", "T2", "--json", "file/x.json"], "--json file/x.json: file is not a directory"),
    (["run-all", "--scale", "0.05", "--artefacts", "T2", "--render-dir", "file/sub"],
     "--render-dir file/sub: file is not a directory"),
    # An id asked for twice, whatever its case, is refused, not run twice.
    (["run-all", "--scale", "0.05", "--artefacts", "T2", "t2", "T3"],
     "artefact T2 is listed twice"),
    # At --jobs 1 an attempt runs in the parent: no worker to kill.
    (["run-all", "--artefact-timeout", "1", "--scale", "0.05", "--artefacts", "T3"],
     "artefact_timeout_s needs jobs >= 2"),
    # Without the cache a resume has nothing to read or write.
    (["run-all", "--resume", "--no-cache", "--scale", "0.05", "--artefacts", "T2"],
     "resume needs the artifact cache, which is disabled"),
]


@pytest.mark.parametrize(
    "argv, needle", BAD_NUMERIC_INPUT, ids=[" ".join(argv) for argv, _ in BAD_NUMERIC_INPUT]
)
def test_bad_numeric_flags_exit_2(monkeypatch, tmp_path, capsys, argv, needle):
    """A bad number is refused before any command runs: no traceback,
    ``serve`` never binds its port and ``loadgen`` never sends."""
    from repro.core import cache as cache_mod
    from repro.server import LoadGenerator, MeasurementServer

    def started(*args, **kwargs):
        raise AssertionError(f"{argv[0]} started")

    monkeypatch.setattr(MeasurementServer, "server_bind", started)
    monkeypatch.setattr(LoadGenerator, "wait_ready", started)
    monkeypatch.setattr(LoadGenerator, "run", started)
    # run-all --no-cache replaces the process-default cache.
    monkeypatch.setattr(cache_mod, "_default_cache", cache_mod.get_default_cache())
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert needle in captured.err


@pytest.mark.parametrize("argv", [
    ["run", "F7", "--scale", "2.5"],
    ["run-all", "--scale", "1e-3", "--jobs", "2"],
    ["serve", "--scale", "1.5"],
])
def test_scale_above_one_is_accepted(monkeypatch, argv):
    """``scaled_count`` grows a campaign for a scale above 1."""
    from repro import cli

    monkeypatch.setitem(cli._HANDLERS, argv[0], lambda args: 0)
    assert main(argv) == 0


def test_trip_builds_one_listing(monkeypatch, capsys):
    from repro.experiments import common
    from repro.market import EsimDB

    common.clear_caches()
    common.get_market()  # the cached crawl, built or loaded beforehand
    built = []
    offer_table = EsimDB.offer_table

    def counting(self, days, vantages=()):
        built.append(list(days))
        return offer_table(self, days, vantages)

    monkeypatch.setattr(EsimDB, "offer_table", counting)
    assert main(["trip", "ESP:1", "THA:2", "KEN:1", "--day", "45"]) == 0
    assert "recommended" in capsys.readouterr().out
    assert built == [[45]]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_campaign_save_roundtrip(tmp_path, capsys):
    target = tmp_path / "campaign.jsonl"
    assert main(["campaign", "device", "--scale", "0.03", "--save", str(target)]) == 0
    out = capsys.readouterr().out
    assert "saved" in out
    from repro.measure.io import load_dataset

    assert load_dataset(target).total_records() > 0


def test_run_json_export(tmp_path, capsys):
    import json

    target = tmp_path / "missing" / "f7.json"  # the directory is created
    assert main(["run", "F7", "--json", str(target)]) == 0
    data = json.loads(target.read_text())
    assert any("|" in key for key in data)


def test_trip_command(capsys):
    assert main(["trip", "ESP:2", "FRA:1.5"]) == 0
    out = capsys.readouterr().out
    assert "recommended" in out


def test_trip_bad_leg(capsys):
    assert main(["trip", "ESP:notanumber"]) == 2


def test_tools_catalogue(capsys):
    assert main(["tools"]) == 0
    out = capsys.readouterr().out
    for tool in ("Speedtest", "Traceroute", "CDN", "DNS", "YouTube", "VoIP"):
        assert tool in out


# -- run-all / cache / verbose ------------------------------------------------


@pytest.fixture()
def cli_cache(tmp_path):
    """Point the process-default cache at a throwaway dir for CLI tests."""
    from repro.core import cache as cache_mod
    from repro.experiments import common

    previous = cache_mod.get_default_cache()
    yield tmp_path / "cache"
    common.clear_caches()
    cache_mod.set_default_cache(previous)


def test_run_all_subset(cli_cache, capsys):
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2", "F7",
        "--cache-dir", str(cli_cache),
    ]) == 0
    out = capsys.readouterr().out
    assert "2/2 artefacts ok" in out
    assert "T2" in out and "F7" in out


def test_run_all_exports_report_and_renders(cli_cache, tmp_path, capsys):
    import json

    report_path = tmp_path / "report.json"
    render_dir = tmp_path / "rendered"
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2",
        "--cache-dir", str(cli_cache),
        "--json", str(report_path), "--render-dir", str(render_dir),
    ]) == 0
    data = json.loads(report_path.read_text())
    assert data["runs"][0]["artefact_id"] == "T2"
    assert "Packet Host" in (render_dir / "T2.txt").read_text()
    plain = tmp_path / "plain.txt"
    plain.write_text("")  # the mode a plain open() gives under this umask
    assert report_path.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777


def test_run_all_refuses_a_bare_artefacts_flag(capsys):
    """``--artefacts`` with no id is a usage error, not a run of all 31."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run-all", "--artefacts"])
    assert exit_info.value.code == 2
    assert "expected at least one argument" in capsys.readouterr().err


def test_run_all_unknown_artefact(cli_cache, capsys):
    assert main([
        "run-all", "--artefacts", "F99", "--cache-dir", str(cli_cache),
    ]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_all_parallel_matches_serial(cli_cache, tmp_path, capsys):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    artefacts = ["T2", "F7", "HX1"]
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", *artefacts,
        "--cache-dir", str(cli_cache), "--render-dir", str(serial_dir),
    ]) == 0
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", *artefacts, "--jobs", "2",
        "--cache-dir", str(cli_cache), "--render-dir", str(parallel_dir),
    ]) == 0
    for artefact in artefacts:
        assert (serial_dir / f"{artefact}.txt").read_bytes() == (
            parallel_dir / f"{artefact}.txt"
        ).read_bytes()


def test_run_all_trace_and_trace_views(cli_cache, tmp_path, capsys):
    import json

    trace_dir = tmp_path / "traces"
    report_path = tmp_path / "report.json"
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2",
        "--cache-dir", str(cli_cache), "--trace", str(trace_dir),
        "--json", str(report_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "(trace written to " in out
    data = json.loads(report_path.read_text())
    trace_path = data["trace_path"]
    assert trace_path and trace_path.endswith(".jsonl")

    assert main(["trace", "summary", trace_path]) == 0
    out = capsys.readouterr().out
    assert "run_all" in out
    assert "attributed to named child spans" in out

    assert main(["trace", "tree", trace_path, "--depth", "1"]) == 0
    assert "artefact" in capsys.readouterr().out

    assert main(["trace", "slowest", trace_path, "--top", "3"]) == 0
    assert "run_all" in capsys.readouterr().out


def test_trace_missing_file_errors(capsys):
    assert main(["trace", "summary", "/nonexistent/trace.jsonl"]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_trace_unparseable_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["trace", "summary", str(bad)]) == 2
    assert "bad.jsonl:1" in capsys.readouterr().err


_META = {"type": "meta", "trace_id": "t", "created_unix": 0.0, "attrs": {}}
_SPAN = {"type": "span", "name": "run_all", "span_id": "1", "parent_id": None,
         "start_unix": 0.0, "duration_s": 2.0, "status": "ok", "attrs": {},
         "events": []}

#: Trace lines that parse as JSON but that no view can render.
MALFORMED_TRACE_LINES = {
    "array": [1, 2],
    "metric-without-body": {"type": "metric"},
    "span-name-only": {"type": "span", "name": "x"},
    "span-text-duration": {**_SPAN, "span_id": "2", "duration_s": "x"},
    "meta-list-attrs": {**_META, "attrs": [1]},
    "span-list-attrs": {**_SPAN, "span_id": "2", "attrs": ["id"]},
    "histogram-text-count": {"type": "metric", "metric": {
        "type": "histogram", "name": "h", "buckets": [1.0], "counts": [0, 1],
        "sum": 2.0, "count": "1"}},
    "unknown-metric-type": {"type": "metric", "metric": {
        "type": "summary", "name": "s", "value": 1}},
}


@pytest.mark.parametrize("view", ["summary", "tree", "slowest", "metrics", "critical"])
@pytest.mark.parametrize("case", sorted(MALFORMED_TRACE_LINES))
def test_trace_views_refuse_malformed_lines(tmp_path, capsys, view, case):
    """Each bad line exits 2 naming its file and line, never a traceback."""
    path = tmp_path / "bad.jsonl"
    lines = [_META, _SPAN, MALFORMED_TRACE_LINES[case]]
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    assert main(["trace", view, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "bad.jsonl:3: " in captured.err


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACE_LINES))
def test_report_omits_a_malformed_trace(tmp_path, capsys, case):
    """The newest run's bad trace drops the critical-path section only."""
    from repro.obs.history import HistoryStore, RunRecord

    trace_path = tmp_path / "trace.jsonl"
    lines = [_META, _SPAN, MALFORMED_TRACE_LINES[case]]
    trace_path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    HistoryStore(tmp_path / "hist").append(RunRecord(
        run_id="r0", created_unix=1.0, seed=2024, scale=0.05, jobs=1,
        total_wall_s=2.0, trace_path=str(trace_path),
    ))
    out = tmp_path / "report.html"
    assert main(["report", "--html", str(out),
                 "--history", str(tmp_path / "hist")]) == 0
    assert "wrote" in capsys.readouterr().out
    assert "latest critical path" not in out.read_text()


def test_report_reads_the_history_once(tmp_path, capsys, monkeypatch):
    from repro.obs.history import HistoryStore, RunRecord

    history = tmp_path / "hist"
    HistoryStore(history).append(RunRecord(
        run_id="r0", created_unix=1.0, seed=2024, scale=0.05, jobs=1,
        total_wall_s=2.0,
    ))
    loads = []
    load = HistoryStore.load

    def counting(self):
        loads.append(self.path)
        return load(self)

    monkeypatch.setattr(HistoryStore, "load", counting)
    out = tmp_path / "report.html"
    assert main(["report", "--html", str(out), "--history", str(history)]) == 0
    assert "(1 recorded run(s))" in capsys.readouterr().out
    assert len(loads) == 1 and "1 recorded run(s)" in out.read_text()
    # A directory as the target: one stderr line naming it, and the
    # store is not read.
    assert main(["report", "--html", str(tmp_path), "--history", str(history)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"--html {tmp_path} is a directory\n"
    assert len(loads) == 1


def test_main_leaves_the_repro_logger_as_it_found_it(cli_cache):
    """``main()`` routes ``repro.*`` records only while its command runs;
    afterwards ``caplog`` in later tests sees them again."""
    import logging

    logger = logging.getLogger("repro")
    before = (list(logger.handlers), logger.level, logger.propagate)
    assert main(["cache", "info", "--cache-dir", str(cli_cache)]) == 0
    assert not any(getattr(h, "_repro_cli", False) for h in logger.handlers)
    assert logger.propagate is True
    assert (list(logger.handlers), logger.level, logger.propagate) == before


def test_cache_info_and_clear(cli_cache, capsys):
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2",
        "--cache-dir", str(cli_cache),
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", str(cli_cache)]) == 0
    out = capsys.readouterr().out
    assert "cache root" in out and "world-" in out
    assert main(["cache", "clear", "--cache-dir", str(cli_cache)]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", str(cli_cache)]) == 0
    assert "entries    : 0" in capsys.readouterr().out


# -- history / regress / report ----------------------------------------------


def _run_all_history(cli_cache, history_dir, *extra):
    return main([
        "run-all", "--scale", "0.05", "--artefacts", "T2", "F7",
        "--cache-dir", str(cli_cache), "--history", str(history_dir), *extra,
    ])


def test_run_all_history_appends_and_reports_run_id(cli_cache, tmp_path, capsys):
    import json

    history_dir = tmp_path / "hist"
    report_path = tmp_path / "report.json"
    assert _run_all_history(cli_cache, history_dir, "--json", str(report_path)) == 0
    out = capsys.readouterr().out
    assert "(history run " in out

    data = json.loads(report_path.read_text())
    assert data["ok"] is True
    assert data["history_run_id"]

    from repro.obs.history import HistoryStore

    (record,) = HistoryStore(history_dir).load()
    assert record.run_id == data["history_run_id"]
    assert set(record.artefacts) == {"T2", "F7"}
    assert all(s.fingerprint for s in record.artefacts.values())


def test_identical_runs_pass_the_regression_gate(cli_cache, tmp_path, capsys):
    history_dir = tmp_path / "hist"
    assert _run_all_history(cli_cache, history_dir) == 0
    assert _run_all_history(cli_cache, history_dir) == 0
    capsys.readouterr()
    assert main([
        "regress", "--history", str(history_dir), "--fail-on-regression",
    ]) == 0
    assert "no regressions detected" in capsys.readouterr().out


def test_injected_slowdown_fails_the_regression_gate(
    cli_cache, tmp_path, capsys, monkeypatch
):
    import time as time_mod

    import repro.experiments.table2 as table2

    history_dir = tmp_path / "hist"
    assert _run_all_history(cli_cache, history_dir) == 0
    assert _run_all_history(cli_cache, history_dir) == 0

    original = table2.run

    def slow_run(**kwargs):
        time_mod.sleep(0.4)
        return original(**kwargs)

    monkeypatch.setattr(table2, "run", slow_run)
    assert _run_all_history(cli_cache, history_dir) == 0
    capsys.readouterr()
    assert main([
        "regress", "--history", str(history_dir), "--fail-on-regression",
    ]) == 1
    out = capsys.readouterr().out
    assert "latency-regression" in out
    assert "T2" in out
    # Without the gate flag the verdicts still print but exit 0.
    assert main(["regress", "--history", str(history_dir)]) == 0


def test_forced_fingerprint_change_fails_the_regression_gate(
    cli_cache, tmp_path, capsys, monkeypatch
):
    import repro.experiments.table2 as table2

    history_dir = tmp_path / "hist"
    assert _run_all_history(cli_cache, history_dir) == 0
    assert _run_all_history(cli_cache, history_dir) == 0

    monkeypatch.setattr(table2, "run", lambda **kwargs: {"tampered": True})
    assert _run_all_history(cli_cache, history_dir) == 0
    capsys.readouterr()
    assert main([
        "regress", "--history", str(history_dir), "--fail-on-regression",
    ]) == 1
    out = capsys.readouterr().out
    assert "fingerprint-change" in out
    assert "T2" in out


def test_regress_against_pinned_run(cli_cache, tmp_path, capsys):
    history_dir = tmp_path / "hist"
    assert _run_all_history(cli_cache, history_dir) == 0
    assert _run_all_history(cli_cache, history_dir) == 0
    capsys.readouterr()

    from repro.obs.history import HistoryStore

    first = HistoryStore(history_dir).load()[0]
    assert main([
        "regress", "--history", str(history_dir), "--against", first.run_id,
    ]) == 0
    assert first.run_id in capsys.readouterr().out


def test_regress_needs_a_baseline(cli_cache, tmp_path, capsys):
    history_dir = tmp_path / "hist"
    assert main(["regress", "--history", str(history_dir)]) == 2
    assert "no runs recorded" in capsys.readouterr().err
    assert _run_all_history(cli_cache, history_dir) == 0
    capsys.readouterr()
    assert main(["regress", "--history", str(history_dir)]) == 2
    assert "no earlier baseline" in capsys.readouterr().err


def test_history_list_show_compare(cli_cache, tmp_path, capsys):
    history_dir = tmp_path / "hist"
    assert _run_all_history(cli_cache, history_dir) == 0
    assert _run_all_history(cli_cache, history_dir) == 0
    capsys.readouterr()

    assert main(["history", "list", "--history", str(history_dir)]) == 0
    out = capsys.readouterr().out
    assert "seed2024-scale0.05-jobs1" in out
    assert out.count("2/ 2") == 2

    assert main(["history", "show", "--history", str(history_dir)]) == 0
    out = capsys.readouterr().out
    assert "T2" in out and "F7" in out and "fingerprint" in out

    from repro.obs.history import HistoryStore

    run_ids = [record.run_id for record in HistoryStore(history_dir).load()]
    assert main([
        "history", "compare", *run_ids, "--history", str(history_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "identical" in out and "DIFFERENT" not in out


def test_history_empty_store_errors(tmp_path, capsys):
    assert main(["history", "list", "--history", str(tmp_path / "none")]) == 2
    assert "no runs recorded" in capsys.readouterr().err


def test_report_html_dashboard(cli_cache, tmp_path, capsys):
    history_dir = tmp_path / "hist"
    target = tmp_path / "report.html"
    assert _run_all_history(cli_cache, history_dir) == 0
    assert _run_all_history(cli_cache, history_dir) == 0
    capsys.readouterr()
    assert main([
        "report", "--html", str(target), "--history", str(history_dir),
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    html = target.read_text()
    assert "seed2024-scale0.05-jobs1" in html
    assert "<table>" in html


def test_run_all_exits_nonzero_on_artefact_failure(
    cli_cache, tmp_path, capsys, monkeypatch
):
    import json

    import repro.experiments.table2 as table2

    def boom(**kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(table2, "run", boom)
    report_path = tmp_path / "report.json"
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2", "F7",
        "--cache-dir", str(cli_cache), "--json", str(report_path),
        "--history", str(tmp_path / "hist"),
    ]) == 1
    out = capsys.readouterr().out
    assert "FAILED T2" in out
    data = json.loads(report_path.read_text())
    assert data["ok"] is False

    from repro.obs.history import HistoryStore

    (record,) = HistoryStore(tmp_path / "hist").load()
    assert record.ok is False
    assert record.artefacts["T2"].status == "error"


def test_trace_multiple_files_and_metrics_view(cli_cache, tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2",
        "--cache-dir", str(cli_cache), "--trace", str(trace_dir),
    ]) == 0
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2", "--jobs", "2",
        "--cache-dir", str(cli_cache), "--trace", str(trace_dir),
    ]) == 0
    capsys.readouterr()
    traces = sorted(str(path) for path in trace_dir.glob("*.jsonl"))
    assert len(traces) == 2

    assert main(["trace", "summary", *traces]) == 0
    out = capsys.readouterr().out
    for path in traces:
        assert f"== {path} ==" in out
    assert out.count("run_all") >= 2

    # Unshelled glob patterns expand too.
    assert main(["trace", "metrics", str(trace_dir / "*.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "counter" in out and "cache." in out

    assert main(["trace", "critical", traces[0]]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out

    assert main(["trace", "summary", str(trace_dir / "nope-*.jsonl")]) == 2
    assert "no trace files match" in capsys.readouterr().err


def test_bare_chaos_is_run_rx1(cli_cache, capsys):
    """``repro chaos`` without fault flags prints what ``repro run RX1``
    prints, from the same cache entries; a fault flag changes the run."""
    from repro.core import cache as cache_mod
    from repro.experiments import common

    common.clear_caches()
    store = cache_mod.configure(root=cli_cache)
    assert main(["run", "RX1", "--scale", "0.05"]) == 0
    rx1 = capsys.readouterr().out
    entries = store.entries()
    common.clear_caches()
    assert main(["chaos", "--scale", "0.05"]) == 0
    assert capsys.readouterr().out == rx1
    assert store.entries() == entries
    assert main(["chaos", "--scale", "0.05", "--churn", "0.3"]) == 0
    assert capsys.readouterr().out != rx1


def test_chaos_weather_silent_by_default(capsys):
    assert main(["chaos", "--churn", "0.3", "--scale", "0.03"]) == 0
    captured = capsys.readouterr()
    assert "went dark" not in captured.err
    assert "went dark" not in captured.out


def test_verbose_surfaces_campaign_weather(capsys):
    from repro.experiments import common

    # Force the campaign (and its logs) to actually re-run: drop the
    # in-memory layer AND the disk entry the previous chaos test wrote.
    common.clear_caches(disk=True)
    assert main(["--verbose", "chaos", "--churn", "0.3", "--scale", "0.03"]) == 0
    captured = capsys.readouterr()
    assert "went dark" in captured.err
    assert "went dark" not in captured.out


# -- resilient run-all: resume, chaos, cache verify -------------------------


def _ledger_workers(out):
    """Artefact id -> worker column of a ``run-all`` ledger."""
    return {
        line.split()[0]: line.split()[3]
        for line in out.splitlines() if line.split()[1:2] == ["ok"]
    }


def test_run_all_journal_then_resume(cli_cache, capsys):
    argv = [
        "run-all", "--scale", "0.05", "--artefacts", "T2", "F7",
        "--cache-dir", str(cli_cache), "--resume",
    ]
    assert main(argv) == 0
    assert "cache" not in _ledger_workers(capsys.readouterr().out).values()
    assert main(argv) == 0
    out = capsys.readouterr().out
    # Both rows served from the results the first run stored.
    assert _ledger_workers(out) == {"T2": "cache", "F7": "cache"}
    assert "2/2 artefacts ok" in out


def test_run_all_resume_at_another_scale_serves_nothing(cli_cache, capsys):
    """F7 reads the scale, so its result key holds it: a result stored
    at 0.05 is not the 0.03 run's."""
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "F7",
        "--cache-dir", str(cli_cache), "--resume",
    ]) == 0
    capsys.readouterr()
    assert main([
        "run-all", "--scale", "0.03", "--artefacts", "F7",
        "--cache-dir", str(cli_cache), "--resume",
    ]) == 0
    assert _ledger_workers(capsys.readouterr().out)["F7"].startswith("pid-")


def test_run_all_resume_serves_a_served_artefact(cli_cache, tmp_path, capsys):
    """``/artefact`` stores its result under the key ``--resume`` reads."""
    from repro.core import cache as cache_mod
    from repro.server.state import ServerState

    cache_mod.configure(root=cli_cache)
    served = ServerState(seed=2024, scale=0.05).artefact("F7")
    assert served["source"] == "computed"
    out_json = tmp_path / "resumed.json"
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "F7",
        "--cache-dir", str(cli_cache), "--resume", "--json", str(out_json),
    ]) == 0
    report = json.loads(out_json.read_text())
    (row,) = report["runs"]
    assert (row["worker"], row["attempts"]) == ("cache", 0)
    assert report["results"]["F7"] == json.loads(json.dumps(served["result"]))


def test_run_all_with_exec_chaos_flags(cli_cache, capsys):
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2", "F7",
        "--cache-dir", str(cli_cache), "--jobs", "2",
        "--exec-crash-rate", "0.5", "--exec-chaos-seed", "5",
    ]) == 0
    assert "2/2 artefacts ok" in capsys.readouterr().out


def test_profile_keeps_the_wrapped_exit_code(cli_cache, capsys):
    assert main([
        "profile", "--", "run-all", "--artefacts", "F99",
        "--cache-dir", str(cli_cache),
    ]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_profile_out_creates_its_directory(cli_cache, tmp_path, capsys):
    target = tmp_path / "new" / "profiles" / "run.collapsed"
    assert main([
        "profile", "--out", str(target), "--interval-ms", "1", "--",
        "run-all", "--scale", "0.05", "--artefacts", "T2",
        "--cache-dir", str(cli_cache),
    ]) == 0
    lines = target.read_text().splitlines()
    assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
    assert not [p for p in target.parent.iterdir() if p != target]  # no temp left
    plain = tmp_path / "plain.txt"
    plain.write_text("")  # the mode a plain open() gives under this umask
    assert target.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777


def test_profiled_run_all_exports_the_same_results(cli_cache, tmp_path, capsys):
    import json

    argv = [
        "run-all", "--scale", "0.05", "--artefacts", "T2", "F7",
        "--cache-dir", str(cli_cache),
    ]
    plain, profiled = tmp_path / "plain.json", tmp_path / "profiled.json"
    assert main([*argv, "--json", str(plain)]) == 0
    assert main([
        "profile", "--out", str(tmp_path / "run.collapsed"), "--",
        *argv, "--json", str(profiled),
    ]) == 0
    assert json.loads(profiled.read_text())["results"] == json.loads(
        plain.read_text()
    )["results"]


def test_cache_verify_cli(cli_cache, capsys):
    import pathlib

    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "T2",
        "--cache-dir", str(cli_cache),
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", str(cli_cache)]) == 0
    assert "corrupt    : 0" in capsys.readouterr().out
    victim = sorted(pathlib.Path(cli_cache).glob("*.pkl"))[0]
    victim.write_bytes(b"scribbled")
    assert main(["cache", "verify", "--cache-dir", str(cli_cache)]) == 1
    assert victim.stem in capsys.readouterr().out
    assert main([
        "cache", "verify", "--cache-dir", str(cli_cache), "--prune",
    ]) == 0
    assert "pruned     : 1" in capsys.readouterr().out
    assert not victim.exists()


def test_cache_verify_names_a_damaged_market_entry(cli_cache, capsys):
    """The market crawl is cached as one pickle like every input; ``info``
    lists it, ``verify`` names it once one byte of its prices is flipped
    (the entry still unpickles), ``--prune`` drops it."""
    from repro.experiments import common

    common.clear_caches()  # F16's crawl must be built into this cache
    assert main([
        "run-all", "--scale", "0.05", "--artefacts", "F16",
        "--cache-dir", str(cli_cache),
    ]) == 0
    capsys.readouterr()
    root = pathlib.Path(cli_cache)
    (victim,) = root.glob("market-*")
    assert victim.suffix == ".pkl"
    assert main(["cache", "info", "--cache-dir", str(cli_cache)]) == 0
    out = capsys.readouterr().out
    assert "entries    : 1" in out and victim.stem in out
    blob = bytearray(victim.read_bytes())
    blob[-8000] ^= 0x40
    victim.write_bytes(bytes(blob))
    assert main(["cache", "verify", "--cache-dir", str(cli_cache)]) == 1
    assert f"corrupt {victim.stem}" in capsys.readouterr().out
    assert main([
        "cache", "verify", "--cache-dir", str(cli_cache), "--prune",
    ]) == 0
    assert "pruned     : 1" in capsys.readouterr().out
    assert not victim.exists()


def test_cache_verify_prunes_a_killed_writers_temp(cli_cache, capsys):
    """A process killed inside atomic_write leaves its hidden temp file;
    ``cache verify`` reports it and ``--prune`` removes it."""
    root = pathlib.Path(cli_cache)
    root.mkdir(parents=True)
    killed = _python(
        "import os, sys\n"
        "from repro.core.cache import atomic_write\n"
        "def die(handle):\n"
        "    handle.write(b'half a pickle')\n"
        "    os._exit(9)\n"
        "atomic_write(os.path.join(sys.argv[1], 'entry.pkl'), die)\n",
        str(root),
    )
    assert killed.returncode == 9
    (stray,) = [path.name for path in root.iterdir()]
    assert stray.startswith(".entry.pkl.")
    assert main(["cache", "verify", "--cache-dir", str(cli_cache)]) == 1
    assert f"stray   {stray}" in capsys.readouterr().out
    assert main([
        "cache", "verify", "--cache-dir", str(cli_cache), "--prune",
    ]) == 0
    assert "pruned     : 1" in capsys.readouterr().out
    assert list(root.iterdir()) == []


def _small_trace(tmp_path):
    """A three-span trace file, as ``run-all --trace`` writes them."""
    from repro import obs

    recorder = obs.TraceRecorder(trace_id="probe")
    with recorder.span("run_all"):
        with recorder.span("warm_inputs"):
            pass
        with recorder.span("artefact", artefact="T2"):
            pass
    return obs.write_trace(recorder, tmp_path / "trace.jsonl")


#: Runs ``main(sys.argv[2:])`` in a fresh interpreter, then writes its
#: exit code, which numeric libraries and which ``repro`` modules it
#: loaded to ``sys.argv[1]``.
_IMPORT_PROBE = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[2:])\n"
    "except SystemExit as stop:\n"
    "    code = stop.code\n"
    "loaded = sorted(m for m in ('numpy', 'scipy', 'networkx') if m in sys.modules)\n"
    "modules = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
    "with open(sys.argv[1], 'w') as handle:\n"
    "    json.dump([code, loaded, modules], handle)\n"
)

#: The simulator's packages: the world, its substrates, the campaigns
#: and the analysis over their records.
SIMULATOR_PACKAGES = (
    "worlds", "market", "measure", "cellular", "net", "services", "ipx",
    "mna", "analysis",
)

#: Commands that compute nothing numeric: argv, exit code, text their
#: stdout contains (``""``: no stdout at all), and whether they must also
#: load no simulator module and no experiment beyond ``common`` and
#: ``registry``. ``{trace}`` is a small trace.
NON_NUMERIC_COMMANDS = [
    (["list"], 0, "F11", True),
    (["--help"], 0, "usage: repro", True),
    (["history", "list"], 2, "", True),
    (["regress"], 2, "", True),
    (["cache", "info"], 0, "entries    : 0", True),
    (["trace", "summary", "{trace}"], 0, "3 spans, 0 span events", True),
]


@pytest.mark.parametrize(
    "argv, code, stdout, lean", NON_NUMERIC_COMMANDS,
    ids=[" ".join(argv) for argv, _, _, _ in NON_NUMERIC_COMMANDS],
)
def test_non_numeric_commands_load_no_numeric_library(
    monkeypatch, tmp_path, argv, code, stdout, lean
):
    """numpy is imported inside the functions that compute with it and
    scipy inside the two hypothesis tests; networkx is not a runtime
    dependency. A command that computes nothing loads none of them.

    Package inits export lazily and ``cli.py`` imports each command's
    modules inside its handler, so a command that only reads a store
    or a trace loads no simulator module either."""
    trace = _small_trace(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))
    report = tmp_path / "probe.json"
    probe = _python(
        _IMPORT_PROBE, str(report), *(arg.format(trace=trace) for arg in argv),
        capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    exit_code, numeric, modules = json.loads(report.read_text())
    assert (exit_code, numeric) == (code, []), probe.stderr
    if lean:
        simulator = [
            m for m in modules if m.split(".")[1] in SIMULATOR_PACKAGES
        ]
        experiments = [
            m for m in modules if m.startswith("repro.experiments.")
            and m not in ("repro.experiments.common", "repro.experiments.registry")
        ]
        assert simulator == [] and experiments == [], modules
    if stdout:
        assert stdout in probe.stdout
    else:
        assert probe.stdout == ""


def test_run_loads_only_the_experiment_it_runs(monkeypatch, tmp_path):
    """The artefact table names each experiment's module, so ``repro
    run T2`` imports ``table2`` and no other experiment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    report = tmp_path / "probe.json"
    probe = _python(
        _IMPORT_PROBE, str(report), "run", "T2", capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    exit_code, _numeric, modules = json.loads(report.read_text())
    assert exit_code == 0 and "countries per architecture" in probe.stdout
    assert [m for m in modules if m.startswith("repro.experiments.")] == [
        "repro.experiments.common", "repro.experiments.registry",
        "repro.experiments.table2",
    ]


@pytest.mark.parametrize("warm", [
    "from repro.core.runner import StudyRunner\n"
    "StudyRunner(seed=2024).warm_inputs(0.05, ['T2'])\n",
    "from repro.server.state import ServerState\n"
    "ServerState(scale=0.02).warm()\n",
], ids=["StudyRunner.warm_inputs", "ServerState.warm"])
def test_warm_phases_load_numpy(tmp_path, warm):
    """The two warm phases that precede numeric work load numpy, so its
    import is never charged to an artefact's clock or a request."""
    probe = _python(
        "import sys\n"
        "from repro.core import cache\n"
        "cache.configure(root=sys.argv[1])\n"
        + warm +
        "print('numpy' in sys.modules)",
        str(tmp_path / "cache"), capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "True"


def test_hypothesis_tests_leave_scipy_stats_unloaded(tmp_path):
    """F11 and F13 run Welch's and Levene's tests through scipy.special
    alone: scipy.stats (about a second of import) never loads."""
    probe = _python(
        "import sys\n"
        "from repro.core import cache\n"
        "from repro.core.study import ThickMnaStudy\n"
        "cache.configure(root=sys.argv[1])\n"
        "study = ThickMnaStudy(seed=2024)\n"
        "assert study.run('F11', scale=0.02)['levene_p'] > 0\n"
        "study.run('F13', scale=0.02)\n"
        "print(sorted(m for m in ('scipy.special', 'scipy.stats') if m in sys.modules))",
        str(tmp_path / "cache"), capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "['scipy.special']"


# -- the process entry point ---------------------------------------------------


def _python_m_repro(tmp_path, *argv, stdout=subprocess.PIPE):
    """``python -m repro ARGV`` in ``tmp_path``, with its own cache."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=tmp_path, env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def test_the_exit_path_loses_nothing(tmp_path):
    """``python -m repro`` freezes the collector before the interpreter
    shuts down; every file a command writes is still whole, and a
    ``--jobs 2`` pool and a ``--resume`` export what the serial run
    did."""
    from repro.obs.history import ArtefactStats, HistoryStore, RunRecord

    HistoryStore(tmp_path / "history").append(RunRecord(
        run_id="earlier", created_unix=1.0, seed=2024, scale=0.05, jobs=1,
        total_wall_s=1.0, artefacts={"T2": ArtefactStats(wall_s=1.0)},
    ))
    done = _python_m_repro(
        tmp_path, "run-all", "--scale", "0.05", "--json", "report.json",
        "--trace", "traces", "--history", "history",
    )
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["results"]) == 31
    assert [run["status"] for run in report["runs"]] == ["ok"] * 31
    (trace,) = (tmp_path / "traces").glob("*.jsonl")
    text = trace.read_text()
    assert text.endswith("\n")
    assert all(json.loads(line) for line in text.splitlines())
    records = HistoryStore(tmp_path / "history").load()
    assert [record.run_id for record in records] == [
        "earlier", report["history_run_id"],
    ]

    done = _python_m_repro(
        tmp_path, "profile", "--out", "prof/t2.collapsed", "--", "run", "T2",
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "prof" / "t2.collapsed").read_text().strip()

    done = _python_m_repro(tmp_path, "run-all", "--scale", "-1")
    assert done.returncode == 2
    assert "--scale must be a positive finite number" in done.stderr

    # Forked workers start from a parent that has imported only what the
    # command needs; they compute what the serial run computed.
    subset = ["T2", "T3", "F7", "F11"]
    serial = json.dumps({a: report["results"][a] for a in subset}, sort_keys=True)
    done = _python_m_repro(
        tmp_path, "run-all", "--jobs", "2", "--scale", "0.05",
        "--artefacts", *subset, "--json", "parallel.json",
    )
    assert done.returncode == 0, done.stderr
    parallel = json.loads((tmp_path / "parallel.json").read_text())
    assert json.dumps(parallel["results"], sort_keys=True) == serial

    # A run that stores its results, then a resume of it that
    # recomputes nothing.
    for attempts in (1, 0):
        done = _python_m_repro(
            tmp_path, "run-all", "--scale", "0.05", "--artefacts", *subset,
            "--resume", "--json", "resumed.json",
        )
        assert done.returncode == 0, done.stderr
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert [run["attempts"] for run in resumed["runs"]] == [attempts] * 4
        assert json.dumps(resumed["results"], sort_keys=True) == serial


@pytest.mark.parametrize("argv", [["list"], ["trace", "summary", "{trace}"]],
                         ids=["list", "trace summary"])
def test_a_closed_stdout_ends_quietly(tmp_path, argv):
    """When stdout's reader is gone (``repro list | head -1``), the
    command exits 1 with nothing on stderr: no ``BrokenPipeError``
    traceback, from the command or from shutdown's flush."""
    trace = _small_trace(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python_m_repro(
            tmp_path, *(arg.format(trace=trace) for arg in argv),
            stdout=write_end,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_console_script_and_python_m_share_one_entry_function(capsys):
    """``[project.scripts]`` names the function ``python -m repro`` calls,
    and that function freezes the collector after ``main()``, which does
    not freeze itself."""
    import gc
    import re

    root = pathlib.Path(__file__).resolve().parents[2]
    scripts = re.search(
        r'^\[project\.scripts\]\nrepro = "(.+):(.+)"$',
        (root / "pyproject.toml").read_text(), re.MULTILINE,
    )
    module, function = scripts.groups()
    python_m = (root / "src" / "repro" / "__main__.py").read_text()
    assert f"from {module} import {function}\n" in python_m
    assert f"sys.exit({function}())\n" in python_m

    frozen = gc.get_freeze_count()
    assert main(["list"]) == 0
    assert gc.get_freeze_count() == frozen
    probe = _python(
        "import gc, importlib, sys\n"
        "entry = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])\n"
        "sys.argv[1:] = ['list']\n"
        "status = entry()\n"
        "print(status, gc.get_freeze_count() > 0)",
        module, function, capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == "0 True"
