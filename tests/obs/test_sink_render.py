"""Trace file round-trips and the terminal render views."""

import json

import pytest

from repro import obs


def _sample_recorder():
    recorder = obs.TraceRecorder(trace_id="test-trace")
    with obs.use_recorder(recorder):
        with obs.span("run_all", jobs=1):
            with obs.span("warm_inputs"):
                pass
            with obs.span("artefact", id="T2"):
                obs.event("fault.sim-flip", day=2)
            with pytest.raises(RuntimeError):
                with obs.span("artefact", id="F9"):
                    raise RuntimeError("broken artefact")
        obs.event("stray")
        obs.counter("cache.hit").inc(3)
        obs.histogram("cache.load_s").observe(0.002)
    return recorder


def test_write_and_load_roundtrip(tmp_path):
    recorder = _sample_recorder()
    path = tmp_path / "trace.jsonl"
    obs.write_trace(recorder, path, attrs={"seed": 2024})

    trace = obs.load_trace(path)
    assert trace.trace_id == "test-trace"
    assert trace.attrs == {"seed": 2024}
    assert trace.created_unix > 0
    assert [s["name"] for s in trace.roots()] == ["run_all"]
    root_id = trace.roots()[0]["span_id"]
    children = trace.children_of(root_id)
    assert sorted(s["name"] for s in children) == [
        "artefact", "artefact", "warm_inputs",
    ]
    assert [e["name"] for e in trace.events] == ["stray"]
    kinds = {m["type"] for m in trace.metrics}
    assert kinds == {"counter", "histogram"}
    failed = next(s for s in trace.spans if s["attrs"].get("id") == "F9")
    assert failed["status"] == "error"


def test_timestamps_live_only_in_the_trace_file(tmp_path):
    recorder = _sample_recorder()
    path = tmp_path / "trace.jsonl"
    obs.write_trace(recorder, path)
    stamped = [
        line for line in path.read_text().splitlines()
        if "start_unix" in line or "created_unix" in line or "time_unix" in line
    ]
    assert stamped  # the trace itself carries the wall clocks


def test_load_trace_reports_bad_json_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "meta", "trace_id": "x"}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        obs.load_trace(path)


def test_load_trace_ignores_unknown_record_types(tmp_path):
    path = tmp_path / "forward.jsonl"
    path.write_text(
        json.dumps({"type": "meta", "trace_id": "x"}) + "\n"
        + json.dumps({"type": "hologram", "payload": 1}) + "\n"
        + json.dumps({"type": ["span"], "name": 1}) + "\n"
    )
    trace = obs.load_trace(path)
    assert trace.trace_id == "x"
    assert trace.spans == []


def _synthetic_trace(child_durations, root_duration=10.0):
    trace = obs.TraceData(trace_id="synthetic")
    trace.spans.append({
        "name": "run_all", "span_id": "r", "parent_id": None,
        "start_unix": 0.0, "duration_s": root_duration, "status": "ok",
        "attrs": {}, "events": [],
    })
    for index, duration in enumerate(child_durations):
        trace.spans.append({
            "name": f"child{index}", "span_id": f"c{index}", "parent_id": "r",
            "start_unix": float(index), "duration_s": duration, "status": "ok",
            "attrs": {}, "events": [],
        })
    return trace


def test_coverage_is_attributed_child_share():
    assert obs.coverage(_synthetic_trace([4.0, 5.0])) == pytest.approx(0.9)
    # Concurrent children can sum past the root; coverage saturates at 1.
    assert obs.coverage(_synthetic_trace([8.0, 8.0])) == 1.0
    assert obs.coverage(obs.TraceData()) is None


def test_summary_lists_spans_metrics_and_attribution(tmp_path):
    recorder = _sample_recorder()
    path = tmp_path / "trace.jsonl"
    obs.write_trace(recorder, path)
    text = obs.summary(obs.load_trace(path))
    assert "run_all" in text
    assert "artefact" in text
    assert "attributed to named child spans:" in text
    assert "cache.hit" in text
    assert "cache.load_s" in text


def test_tree_indents_children_and_flags_errors(tmp_path):
    recorder = _sample_recorder()
    path = tmp_path / "trace.jsonl"
    obs.write_trace(recorder, path)
    lines = obs.tree(obs.load_trace(path)).splitlines()
    assert "run_all" in lines[0]
    indented = [line for line in lines[1:] if "warm_inputs" in line]
    assert indented and indented[0].index("warm_inputs") > lines[0].index("run_all")
    assert any("!ERROR" in line for line in lines)
    assert any("(1 events)" in line for line in lines)


def test_tree_respects_max_depth(tmp_path):
    recorder = _sample_recorder()
    path = tmp_path / "trace.jsonl"
    obs.write_trace(recorder, path)
    shallow = obs.tree(obs.load_trace(path), max_depth=0)
    assert "run_all" in shallow
    assert "warm_inputs" not in shallow


def test_slowest_ranks_and_shows_ancestry():
    trace = _synthetic_trace([4.0, 5.0])
    text = obs.slowest(trace, top=2)
    lines = text.splitlines()
    assert "run_all" in lines[1]          # longest first
    assert "child1 < run_all" in lines[2]  # ancestry path
    assert "child0" not in text            # truncated by top
