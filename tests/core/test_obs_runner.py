"""Telemetry through the study runner: traces, re-parenting, byte-identity.

The telemetry layer's contract with the runner:

* ``trace_dir=`` writes exactly one JSONL trace per ``run_all`` with a
  single ``run_all`` root span that owns every artefact span — including
  spans recorded inside pool workers and shipped back over pickle;
* artefact bytes are identical whether tracing is on or off (the golden
  test pins the absolute bytes; here we pin traced == untraced);
* the summary view attributes >= 95% of root wall time to named child
  spans (the acceptance bar for instrumentation coverage);
* with no recorder installed, instrumentation costs under 2% of a warm
  serial ``run_all`` (the contract in ``docs/OBSERVABILITY.md``).
"""

import json
import time

import pytest

from repro import obs
from repro.core.runner import StudyRunner
from repro.experiments import common
from repro.experiments.export import jsonable
from tests.conftest import OVERHEAD_BUDGET

SCALE = 0.05
SUBSET = ["T2", "F11"]


@pytest.fixture(autouse=True)
def _clean_recorder():
    # Runner tests must never leak a recorder into the process default.
    before = obs.get_recorder()
    yield
    assert obs.get_recorder() is before


def test_untraced_run_has_no_trace_path():
    report = StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, artefacts=SUBSET)
    assert report.trace_path is None
    assert json.loads(json.dumps(report.to_jsonable()))["trace_path"] is None


def test_traced_serial_run_writes_one_rooted_trace(tmp_path):
    runner = StudyRunner(seed=2024, jobs=1, trace_dir=tmp_path)
    report = runner.run_all(scale=SCALE, artefacts=SUBSET)
    assert not report.failed()
    assert report.trace_path is not None
    assert report.trace_path.endswith(f"run_all-seed2024-scale{SCALE:g}-jobs1.jsonl")
    assert report.to_jsonable()["trace_path"] == report.trace_path

    trace = obs.load_trace(report.trace_path)
    assert trace.attrs == {"seed": 2024, "scale": SCALE, "jobs": 1}
    roots = trace.roots()
    assert [span["name"] for span in roots] == ["run_all"]
    artefact_spans = trace.children_of(roots[0]["span_id"])
    ids = sorted(
        span["attrs"]["id"] for span in artefact_spans
        if span["name"] == "artefact"
    )
    assert ids == sorted(SUBSET)


def test_traced_parallel_run_reparents_worker_spans(tmp_path):
    runner = StudyRunner(seed=2024, jobs=2, trace_dir=tmp_path)
    report = runner.run_all(scale=SCALE, artefacts=SUBSET)
    assert not report.failed()
    trace = obs.load_trace(report.trace_path)
    roots = trace.roots()
    assert [span["name"] for span in roots] == ["run_all"]
    artefact_spans = [
        span for span in trace.children_of(roots[0]["span_id"])
        if span["name"] == "artefact"
    ]
    assert sorted(s["attrs"]["id"] for s in artefact_spans) == sorted(SUBSET)
    # Worker span ids embed the producing PID: no collisions after adoption.
    all_ids = [span["span_id"] for span in trace.spans]
    assert len(all_ids) == len(set(all_ids))


def test_traced_results_are_byte_identical_to_untraced(tmp_path):
    def exported(**kwargs):
        report = StudyRunner(seed=2024, jobs=1, **kwargs).run_all(
            scale=SCALE, artefacts=SUBSET
        )
        assert not report.failed()
        return {
            artefact: json.dumps(jsonable(result), sort_keys=True)
            for artefact, result in report.results.items()
        }

    assert exported() == exported(trace_dir=tmp_path)


def test_external_recorder_collects_without_a_trace_file():
    recorder = obs.TraceRecorder()
    with obs.use_recorder(recorder):
        report = StudyRunner(seed=2024, jobs=1).run_all(
            scale=SCALE, artefacts=SUBSET
        )
    assert report.trace_path is None
    names = {span.name for span in recorder.spans}
    assert {"run_all", "artefact"} <= names


def test_trace_summary_attributes_95_percent_of_wall_time(tmp_path):
    report = StudyRunner(seed=2024, jobs=1, trace_dir=tmp_path).run_all(scale=SCALE)
    assert not report.failed()
    trace = obs.load_trace(report.trace_path)
    share = obs.coverage(trace)
    assert share is not None and share >= 0.95
    assert "attributed to named child spans:" in obs.summary(trace)


def _cold_process_runner(monkeypatch, **kwargs):
    """A runner whose artefacts perform their own (hitting) disk loads.

    The inputs are put on disk and the in-memory layer dropped; the
    parent-side warm-up is then skipped, as in a fresh worker process.
    """
    runner = StudyRunner(seed=2024, jobs=1, **kwargs)
    runner.warm_inputs(SCALE, ["T2"])
    common.clear_caches()
    monkeypatch.setattr(runner, "warm_inputs", lambda scale, artefacts: 0.0)
    return runner


def test_ledger_reports_cache_hit_latency(monkeypatch):
    runner = _cold_process_runner(monkeypatch)
    report = runner.run_all(scale=SCALE, artefacts=["T2"])
    (run,) = report.runs
    assert run.status == "ok"
    assert run.cache_hits > 0
    assert run.cache_hit_s > 0.0
    row = report.to_jsonable()["runs"][0]
    assert row["cache_hit_s"] == run.cache_hit_s
    assert row["worker"].startswith("pid-")


def test_traced_run_records_cache_metrics(monkeypatch, tmp_path):
    runner = _cold_process_runner(monkeypatch, trace_dir=tmp_path)
    report = runner.run_all(scale=SCALE, artefacts=["T2"])
    trace = obs.load_trace(report.trace_path)
    counters = {
        m["name"]: m["value"] for m in trace.metrics if m["type"] == "counter"
    }
    assert counters.get("cache.hit", 0) > 0
    histograms = {m["name"] for m in trace.metrics if m["type"] == "histogram"}
    assert "cache.load_s" in histograms


# -- the disabled-path budget -------------------------------------------------

#: Iterations of the 5-touch-point microbenchmark loop body.
MICRO_ITERATIONS = 40_000


def _touch_points(trace: "obs.TraceData") -> int:
    """Instrumentation operations the traced run actually performed."""
    spans = 2 * len(trace.spans)  # enter + exit
    events = sum(len(span.get("events", ())) for span in trace.spans)
    events += len(trace.events)
    metric_ops = 0
    for metric in trace.metrics:
        if metric["type"] == "counter":
            metric_ops += metric["value"]
        elif metric["type"] == "histogram":
            metric_ops += metric["count"]
        else:
            metric_ops += 1
    return spans + events + metric_ops


def _null_cost_per_op() -> float:
    """Seconds per disabled touch point (5 ops per loop iteration)."""
    assert not obs.enabled()
    span, counter, event, histogram = (
        obs.span, obs.counter, obs.event, obs.histogram,
    )
    started = time.perf_counter()
    for _ in range(MICRO_ITERATIONS):
        with span("bench", shard=1):  # 2 ops: enter + exit
            pass
        counter("bench").inc()
        event("bench", day=0)
        histogram("bench").observe(0.001)
    elapsed = time.perf_counter() - started
    return elapsed / (5 * MICRO_ITERATIONS)


def test_disabled_telemetry_costs_under_2_percent_of_a_warm_run(warm_runs):
    """A cost model, not a wall-time A/B (which drowns in scheduler
    noise at this scale): the touch points a traced run exercises,
    priced at the null path's per-op cost, against the untraced run."""
    baseline_s = warm_runs.untraced_s
    touches = _touch_points(warm_runs.trace)
    assert touches > 0

    per_op_s = _null_cost_per_op()
    projected_s = touches * per_op_s
    assert projected_s < OVERHEAD_BUDGET * baseline_s, (
        f"disabled telemetry projected at {projected_s * 1e3:.3f} ms "
        f"({touches} touch points x {per_op_s * 1e9:.0f} ns), "
        f"{projected_s / baseline_s:.3%} of the {baseline_s:.2f}s warm run "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
