"""``repro.obs`` — the zero-dependency telemetry sidecar.

Hierarchical spans, a metrics registry (counters / gauges / fixed-bucket
histograms) and a per-run JSONL trace sink, instrumented through every
layer of the pipeline. Off by default: the :class:`NullRecorder`
answers every instrumentation point with shared no-op singletons, and a
traced run exports byte-identical artefacts to an untraced one —
timestamps live only in the trace file.

Typical use::

    from repro import obs
    from repro.core.runner import StudyRunner

    runner = StudyRunner(seed=2024, jobs=4, trace_dir="traces/")
    report = runner.run_all(scale=0.15)
    print(report.trace_path)          # traces/run_all-....jsonl

or, instrumenting by hand::

    with obs.use_recorder(obs.TraceRecorder()) as rec:
        with obs.span("my.stage", shard=3):
            obs.counter("my.items").inc()
            obs.event("my.retry", attempt=1)
    obs.write_trace(rec, "trace.jsonl")

See ``docs/OBSERVABILITY.md`` for naming conventions and the trace
schema, and ``python -m repro trace {summary,tree,slowest}`` for the
terminal views.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "LATENCY_BUCKETS_S": "metrics",
    "ArtefactStats": "history",
    "Counter": "metrics",
    "CriticalStep": "critical",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "HistoryStore": "history",
    "LiveSampler": "live",
    "MetricsRecorder": "recorder",
    "MetricsRegistry": "metrics",
    "NULL_RECORDER": "recorder",
    "NullRecorder": "recorder",
    "Phase": "critical",
    "SamplingProfiler": "profile",
    "Recorder": "recorder",
    "RegressionConfig": "regress",
    "RegressionReport": "regress",
    "RunRecord": "history",
    "TraceRecorder": "recorder",
    "Span": "spans",
    "SpanEvent": "spans",
    "TraceData": "sink",
    "Verdict": "regress",
    "compare": "regress",
    "counter": "recorder",
    "coverage": "render",
    "critical_path": "critical",
    "default_history_root": "history",
    "detect": "regress",
    "enabled": "recorder",
    "event": "recorder",
    "gauge": "recorder",
    "get_recorder": "recorder",
    "histogram": "recorder",
    "load_trace": "sink",
    "metrics_view": "render",
    "phase_attribution": "critical",
    "profile_call": "profile",
    "record_from_report": "history",
    "render_critical": "critical",
    "render_html": "report",
    "render_metrics": "exposition:render",
    "set_recorder": "recorder",
    "slowest": "render",
    "span": "recorder",
    "summary": "render",
    "tree": "render",
    "use_recorder": "recorder",
    "write_html": "report",
    "write_trace": "sink",
})
