import time

import pytest

from bench.spans import Recorder, self_time


def _span(start, duration):
    return {"start_unix": start, "duration_s": duration}


def test_self_time_subtracts_the_union_of_children():
    parent = _span(100.0, 10.0)
    children = [_span(101.0, 2.0), _span(102.0, 3.0), _span(108.0, 4.0)]
    # Covered: [101, 105] and [108, 110] (the last child spills past the parent).
    assert self_time(parent, children) == pytest.approx(4.0)
    assert self_time(parent, []) == 10.0
    assert self_time(parent, [_span(99.0, 20.0)]) == 0.0


def test_recorder_nests_spans_and_adopts_another_recorders():
    rec = Recorder("t")
    with rec.span("outer") as outer:
        with rec.span("inner", layer="x") as inner:
            pass
        measured = rec.add("measured", time.perf_counter(), 0.5)
    assert inner["parent_id"] == outer["span_id"] == measured["parent_id"]
    assert rec.children(outer) == [inner, measured]
    assert outer["parent_id"] is None and inner["attrs"] == {"layer": "x"}

    child = Recorder("c")
    with child.span("stage"):
        with child.span("step"):
            pass
    rec.adopt(child.spans, parent_id=outer["span_id"], prefix="c.")
    stage, step = rec.spans[-2:]
    assert stage["parent_id"] == outer["span_id"]
    assert step["parent_id"] == stage["span_id"] == "c.b1"


def test_recorder_marks_failed_spans():
    rec = Recorder("t")
    with pytest.raises(RuntimeError):
        with rec.span("boom"):
            raise RuntimeError("x")
    assert rec.spans[0]["status"] == "error"


def test_written_trace_reads_back_with_the_program_trace_tools(tmp_path):
    from repro.obs import load_trace
    from repro.obs.render import summary

    rec = Recorder("bench-t")
    with rec.span("bench.trace"):
        with rec.span("phase.a"):
            pass
    path = rec.write(tmp_path / "spans.jsonl", {"seed": 1})
    trace = load_trace(path)
    assert trace.trace_id == "bench-t" and len(trace.spans) == 2
    assert "attributed to named child spans" in summary(trace)
